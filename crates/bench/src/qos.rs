//! Multi-tenant QoS fairness benchmark (`bench_results/qos.json`).
//!
//! The SolidFire pitch is that a latency-sensitive tenant keeps its
//! guaranteed IOPS — and a sane p99 — no matter how many noisy neighbors
//! share the cluster. This harness measures exactly that, three phases on
//! identical fresh clusters:
//!
//! 1. **`protected_solo`** — the protected tenant alone, QoS on. The
//!    uncontended reference numbers.
//! 2. **`protected_qos` / `noisy_qos`** — the protected tenant (volume
//!    opened with a `min_iops` reservation) against [`NOISY_TENANTS`]
//!    best-effort neighbors, each on its own volume capped by
//!    [`NOISY_SPEC`] (the SolidFire model: every volume has min/max/burst),
//!    QoS on.
//! 3. **`protected_noqos` / `noisy_noqos`** — the identical tenants and
//!    volumes with `qos_enabled` off, so the same offered load runs
//!    unshaped: the ungated gap the scheduler closes, kept in the same
//!    JSON so the file tells the whole story.
//!
//! All jobs are seed-pinned 4 KiB random writes through
//! [`afc_workload::run_tenants`], so runs are comparable. The gate
//! ([`gate_rows`]): contended protected p99 must stay within
//! [`P99_FACTOR`]× of solo protected p99 plus an absolute
//! [`P99_SLACK_MS`] allowance (solo p99 on the CI host is a quiet-box
//! number in the hundreds of µs, and the mere presence of neighbor
//! *threads* — measured with near-idle, 50-IOPS-capped neighbors — adds
//! ~2 ms of wakeup-scheduling noise the op-queue scheduler cannot see).
//! QoS-on must also strictly beat the qos-off arm. `baseline --check-qos`
//! (check.sh step 9) applies the gate to a fresh run; `--write-qos` also
//! saves it.

use crate::FigRow;
use afc_core::{Cluster, DeviceProfile, OsdTuning, QosSpec};
use afc_workload::{JobSpec, Report, Rw, Tenant};
use std::sync::Arc;
use std::time::Duration;

/// Best-effort neighbors in the contended phases.
pub const NOISY_TENANTS: usize = 4;

/// The protected tenant's contract: a 1500-IOPS floor, no ceiling. The
/// smoke cluster sustains a few thousand IOPS, so the floor is a real
/// claim on capacity without being unsatisfiable.
pub const PROTECTED_SPEC: QosSpec = QosSpec {
    min_iops: 1500,
    max_iops: 0,
    burst: 0,
};

/// Each noisy neighbor's contract: no floor, a 150-IOPS ceiling with a
/// small burst. This is the SolidFire model — *every* volume carries
/// min/max/burst, and the max on best-effort volumes is what bounds the
/// queue depths the protected tenant's ops ride behind. The ceiling is
/// enforced per primary OSD, so a volume striped over two PG primaries
/// can reach up to 2× this aggregate; 4 neighbors stay well under
/// cluster capacity (~4K IOPS) either way. The small burst keeps token
/// refills from releasing dispatch bursts into the shared journal. The
/// qos-off phases reuse the same volumes with the scheduler disabled, so
/// the identical offered load runs uncapped.
pub const NOISY_SPEC: QosSpec = QosSpec {
    min_iops: 0,
    max_iops: 150,
    burst: 4,
};

/// Measurement window per phase, seconds (`AFC_QOS_SECS` overrides).
/// Long enough that the p99 rests on thousands of protected ops; short
/// enough that the three phases fit a CI merge gate.
pub fn qos_secs() -> f64 {
    std::env::var("AFC_QOS_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.0)
}

/// Allowed contended-p99 inflation over solo p99.
pub const P99_FACTOR: f64 = 2.0;

/// Absolute allowance added on top of the ratio ceiling, milliseconds.
/// Calibrated to the host's thread-wakeup noise floor: with four
/// *near-idle* capped neighbors (50 IOPS, iodepth 1) the protected p99
/// already sits ~2 ms above solo before any interference the op-queue
/// scheduler could control.
pub const P99_SLACK_MS: f64 = 3.0;

const IMAGE_SIZE: u64 = 8 * afc_common::MIB;

fn qos_cluster(qos_enabled: bool) -> Cluster {
    let tuning = OsdTuning {
        qos_enabled,
        ..OsdTuning::afceph()
    };
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(tuning)
        .devices(DeviceProfile::clean())
        .build()
        .expect("qos bench cluster build")
}

fn protected_job() -> JobSpec {
    JobSpec::new(Rw::RandWrite)
        .bs(4096)
        .numjobs(1)
        .iodepth(1)
        .runtime(Duration::from_secs_f64(qos_secs()))
        .seed(0x0905)
        .label("protected")
}

fn noisy_job(i: usize) -> JobSpec {
    JobSpec::new(Rw::RandWrite)
        .bs(4096)
        .numjobs(1)
        .iodepth(4)
        .runtime(Duration::from_secs_f64(qos_secs()))
        .seed(0xb0_5e ^ ((i as u64) << 8))
        .label(format!("noisy{i}"))
}

/// One contended phase: the protected tenant (reserved volume) plus
/// [`NOISY_TENANTS`] untagged neighbors on a fresh cluster. Returns
/// `(protected report, merged noisy report, reservation dispatches)`.
fn contended_phase(qos_enabled: bool) -> (Report, Report, u64) {
    let cluster = qos_cluster(qos_enabled);
    let protected_client = cluster.open_volume(PROTECTED_SPEC).expect("open volume");
    let protected_img = Arc::new(
        afc_core::RbdImage::new(protected_client, "prot", IMAGE_SIZE).expect("protected image"),
    );
    let noisy_imgs: Vec<Arc<afc_core::RbdImage>> = (0..NOISY_TENANTS)
        .map(|i| {
            let client = cluster.open_volume(NOISY_SPEC).expect("open noisy volume");
            Arc::new(
                afc_core::RbdImage::new(client, format!("noisy{i}"), IMAGE_SIZE)
                    .expect("noisy image"),
            )
        })
        .collect();
    let mut tenants = vec![Tenant::new(protected_job(), protected_img.as_ref())];
    for (i, img) in noisy_imgs.iter().enumerate() {
        tenants.push(Tenant::new(noisy_job(i), img.as_ref()));
    }
    let mut reports = afc_workload::run_tenants(&tenants);
    let protected = reports.remove(0);
    let noisy = crate::merge_reports(reports, &noisy_job(0).label("noisy"));
    let snap = cluster.metrics_snapshot();
    let reserved: u64 = (0..cluster.osds().len())
        .map(|n| {
            snap.counter(&format!("osd{n}.qos.served_reservation"))
                .unwrap_or(0)
        })
        .sum();
    cluster.shutdown();
    (protected, noisy, reserved)
}

/// Run all three phases and return the figure rows
/// (`x` = noisy-neighbor count).
pub fn run_fairness() -> Vec<FigRow> {
    // Phase 1: solo reference, QoS on.
    let solo = {
        let cluster = qos_cluster(true);
        let client = cluster.open_volume(PROTECTED_SPEC).expect("open volume");
        let img = afc_core::RbdImage::new(client, "prot", IMAGE_SIZE).expect("solo image");
        let r = afc_workload::run(&protected_job(), &img);
        cluster.shutdown();
        r
    };
    // Phase 2: contended, QoS on.
    let (prot_qos, noisy_qos, reserved) = contended_phase(true);
    // Phase 3: contended, QoS off — the gap the scheduler closes.
    let (prot_noqos, noisy_noqos, _) = contended_phase(false);

    println!(
        "qos: protected p99 solo {:.2}ms | contended qos-on {:.2}ms (reservation dispatches {reserved}) | qos-off {:.2}ms",
        solo.p99().as_secs_f64() * 1e3,
        prot_qos.p99().as_secs_f64() * 1e3,
        prot_noqos.p99().as_secs_f64() * 1e3,
    );
    let n = NOISY_TENANTS as f64;
    vec![
        FigRow::from_report("protected_solo", 0.0, &solo, false).with_tuning("afceph"),
        FigRow::from_report("protected_qos", n, &prot_qos, false).with_tuning("afceph"),
        FigRow::from_report("noisy_qos", n, &noisy_qos, false).with_tuning("afceph"),
        FigRow::from_report("protected_noqos", n, &prot_noqos, false).with_tuning("afceph+qos_off"),
        FigRow::from_report("noisy_noqos", n, &noisy_noqos, false).with_tuning("afceph+qos_off"),
    ]
}

/// Apply the fairness gate to the rows of one [`run_fairness`]; returns
/// one message per violation (empty = pass).
///
/// - `protected_qos` p99 must not exceed [`P99_FACTOR`] × the
///   `protected_solo` p99 plus the [`P99_SLACK_MS`] absolute allowance
///   (the isolation claim, host noise floored out).
/// - `protected_qos` p99 must strictly beat `protected_noqos` p99: the
///   scheduler must be doing better than no scheduler at all.
/// - Both `protected_qos` and `noisy_qos` must have made progress
///   (nonzero IOPS): isolation by starving someone is not a pass.
pub fn gate_rows(rows: &[FigRow]) -> Vec<String> {
    let mut out = Vec::new();
    let find = |name: &str| rows.iter().find(|r| r.series == name);
    let (Some(solo), Some(prot)) = (find("protected_solo"), find("protected_qos")) else {
        out.push("missing protected_solo/protected_qos rows".into());
        return out;
    };
    let ceiling = solo.p99_ms * P99_FACTOR + P99_SLACK_MS;
    if prot.p99_ms > ceiling {
        out.push(format!(
            "protected p99 under contention regressed: {:.2}ms > {:.2}ms (solo {:.2}ms × {P99_FACTOR} + {P99_SLACK_MS}ms)",
            prot.p99_ms, ceiling, solo.p99_ms
        ));
    }
    if let Some(noqos) = find("protected_noqos") {
        if prot.p99_ms >= noqos.p99_ms {
            out.push(format!(
                "QoS-on p99 ({:.2}ms) does not beat QoS-off ({:.2}ms) — the scheduler isn't isolating",
                prot.p99_ms, noqos.p99_ms
            ));
        }
    }
    if prot.value <= 0.0 {
        out.push("protected tenant did no work under contention".into());
    }
    match find("noisy_qos") {
        Some(noisy) if noisy.value <= 0.0 => {
            out.push("noisy tenants starved under QoS (best-effort must progress)".into());
        }
        None => out.push("missing noisy_qos row".into()),
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(series: &str, value: f64, p99_ms: f64) -> FigRow {
        FigRow {
            series: series.into(),
            x: 4.0,
            value,
            lat_ms: 0.5,
            p99_ms,
            unit: "IOPS".into(),
            tuning: "afceph".into(),
        }
    }

    fn passing() -> Vec<FigRow> {
        vec![
            row("protected_solo", 2000.0, 1.0),
            row("protected_qos", 1600.0, 1.5),
            row("noisy_qos", 3000.0, 9.0),
            row("protected_noqos", 500.0, 12.0),
            row("noisy_noqos", 4000.0, 8.0),
        ]
    }

    #[test]
    fn gate_passes_within_factor() {
        assert!(gate_rows(&passing()).is_empty());
    }

    #[test]
    fn gate_fails_on_p99_blowout() {
        let mut rows = passing();
        rows[1].p99_ms = 10.0; // ceiling is solo 1.0 × 2 + 3ms slack = 5ms
        let msgs = gate_rows(&rows);
        assert!(msgs.iter().any(|m| m.contains("protected p99")), "{msgs:?}");
    }

    #[test]
    fn gate_fails_when_qos_does_not_beat_qos_off() {
        let mut rows = passing();
        rows[3].p99_ms = 1.2; // qos-off better than qos-on (1.5)
        let msgs = gate_rows(&rows);
        assert!(msgs.iter().any(|m| m.contains("does not beat")), "{msgs:?}");
    }

    #[test]
    fn gate_fails_on_starved_noisy() {
        let mut rows = passing();
        rows[2].value = 0.0;
        let msgs = gate_rows(&rows);
        assert!(msgs.iter().any(|m| m.contains("starved")), "{msgs:?}");
    }

    #[test]
    fn gate_fails_on_missing_rows() {
        assert!(!gate_rows(&[]).is_empty());
    }

    #[test]
    fn env_defaults_sane() {
        assert!(qos_secs() > 0.0);
    }
}
