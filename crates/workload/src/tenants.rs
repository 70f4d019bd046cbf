//! Concurrent multi-tenant workload execution.
//!
//! QoS evaluation needs several jobs hammering the *same* cluster at the
//! same time — N noisy neighbors against one latency-sensitive tenant —
//! and per-tenant reports afterwards. [`run_tenants`] runs one [`crate::run`]
//! job per tenant on its own OS thread (each job spawns its own worker
//! threads as usual), released together through a barrier so every tenant
//! observes the same contention window, and returns the reports in input
//! order. It is cluster-agnostic: each tenant brings its own
//! [`BlockTarget`], which in the QoS bench is an RBD-style image whose
//! client session was opened with a per-volume [QoS spec].
//!
//! [QoS spec]: https://en.wikipedia.org/wiki/Quality_of_service

use crate::{run, JobSpec, Report};
use afc_common::BlockTarget;
use std::sync::Barrier;

/// One tenant: a job description plus the target it drives.
pub struct Tenant<'a> {
    /// The job this tenant runs.
    pub job: JobSpec,
    /// The (typically shared-cluster) device the job drives.
    pub target: &'a dyn BlockTarget,
}

impl<'a> Tenant<'a> {
    /// Pair a job with its target.
    pub fn new(job: JobSpec, target: &'a dyn BlockTarget) -> Self {
        Tenant { job, target }
    }
}

/// Run every tenant concurrently and return their reports in input order.
///
/// All tenants start together (barrier) so their runtime windows overlap
/// fully — the whole point of a contention experiment. A tenant whose
/// worker panics yields a zero-op report carrying its label rather than
/// poisoning the others.
pub fn run_tenants(tenants: &[Tenant<'_>]) -> Vec<Report> {
    let barrier = Barrier::new(tenants.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run(&t.job, t.target)
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(tenants)
            .map(|(h, t)| h.join().unwrap_or_else(|_| empty_report(&t.job)))
            .collect()
    })
}

fn empty_report(job: &JobSpec) -> Report {
    Report {
        ops: 0,
        errors: 0,
        runtime: job.runtime,
        bs: job.bs,
        lat: afc_common::HistSnapshot::default(),
        series: afc_common::TimeSeries::new(),
        label: job.label.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rw;
    use afc_common::blocktarget::MemBlockTarget;
    use afc_common::KIB;
    use std::time::Duration;

    fn job(label: &str, seed: u64) -> JobSpec {
        JobSpec::new(Rw::RandWrite)
            .bs(4 * KIB)
            .runtime(Duration::from_millis(80))
            .seed(seed)
            .label(label)
    }

    #[test]
    fn tenants_run_concurrently_and_report_in_order() {
        let t1 = MemBlockTarget::new(1 << 20);
        let t2 = MemBlockTarget::new(1 << 20);
        let tenants = vec![
            Tenant::new(job("alpha", 1), &t1),
            Tenant::new(job("beta", 2), &t2),
            Tenant::new(job("gamma", 3), &t1),
        ];
        let reports = run_tenants(&tenants);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].label, "alpha");
        assert_eq!(reports[1].label, "beta");
        assert_eq!(reports[2].label, "gamma");
        for r in &reports {
            assert!(r.ops > 0, "{} did no work", r.label);
            assert_eq!(r.errors, 0);
        }
    }

    #[test]
    fn runtime_windows_overlap() {
        // Two 80 ms tenants through a barrier finish in well under the
        // 160 ms a sequential run would need.
        let t = MemBlockTarget::new(1 << 20);
        let tenants = vec![Tenant::new(job("a", 1), &t), Tenant::new(job("b", 2), &t)];
        let start = std::time::Instant::now();
        run_tenants(&tenants);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "tenants ran sequentially: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn empty_tenant_list_is_fine() {
        assert!(run_tenants(&[]).is_empty());
    }
}
