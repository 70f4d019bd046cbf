//! In-process SimpleMessenger-style transport.
//!
//! Ceph's SimpleMessenger dedicates a sender and a receiver thread to every
//! connection — the structure the paper blames for the sub-linear 4K random
//! read scaling at 16 nodes ("messenger's structure is not scalable and
//! have receiver and sender threads for each connection", §4.5). This crate
//! reproduces that shape in-process:
//!
//! - A [`Network`] is a registry of endpoints plus a timing configuration.
//!   Sending reads the registry shared (`RwLock` read) and hands the message
//!   to its receiver; only `register`/`unregister`/`shutdown`, the first
//!   message of a connection and the first one its receiver hands back
//!   (which creates its thread) take it exclusively, so senders do not
//!   serialise on the fabric.
//! - **Taken messages.** Every message is first offered to its
//!   receiver's [`Dispatcher`] on the sending thread, stamped with the
//!   arrival a delivery thread would dispatch it at, and the receiver may
//!   take it there ([`Dispatcher::take`]) when nothing it does with it can
//!   be observed before that instant. A client session takes every reply
//!   and its waiter waits out the arrival. A daemon takes what it can
//!   handle ahead of the arrival and still show only after it: an OSD
//!   with the pending queue takes a client op, which runs to its PG order
//!   point on the client's thread with its device read, its journal
//!   record, its `Replicate`s and its reply all planned from the arrival;
//!   it takes a fast-ack `RepAck`, whose write replies no earlier than the
//!   ack's arrival, and a fast-ack `Replicate`, whose sub-op joins its PG's
//!   FIFO in the order the sender's PG lock sent it and whose journal
//!   record, and so its ack, is planned from the arrival. Order among taken
//!   messages is the order their senders take them in, which a receiver
//!   that needs it gets from a lock the sender holds; per-connection
//!   departure order is a delivery thread's.
//! - A message handed back goes to its `(sender → receiver)` connection's
//!   **delivery thread**, created the first time the receiver hands one
//!   back, which models wire latency, delivers in departure order, and
//!   optionally burns per-message CPU (protocol/checksum work) so host CPU
//!   becomes the collective ceiling exactly as in the paper. A connection
//!   that only carries taken messages never gets a thread.
//! - **Departure-ordered delivery.** A message arrives one hop after it
//!   departs: at once for [`Messenger::send`], at a stated instant for
//!   [`Messenger::send_at`] (a read reply that leaves when its SSD read
//!   completes, so no thread sleeps through the device). A delivery thread
//!   holds its messages by arrival, sleeps once for the earliest and
//!   delivers everything due when it wakes. Plain sends on a connection
//!   stay FIFO; a stamped one never holds back a message that leaves
//!   before it. A sender wakes the thread only when its message arrives
//!   before the one the thread sleeps for.
//! - **Nagle modeling** (§3.2): with `nagle = true` (community KRBD on
//!   CentOS 7), messages smaller than one MSS are delayed by the
//!   small-packet coalescing window before they leave the sender. Large
//!   messages are unaffected — which is why the paper only saw the effect
//!   on small random I/O.
//!
//! The message payload type is generic; `afc-core` instantiates it with its
//! OSD message enum.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod addr;

pub use addr::Addr;

use afc_common::faults::{FaultKind, FaultRegistry, FaultSite};
use afc_common::metrics::{Counter, Metrics};
use afc_common::timeutil::ledger;
use afc_common::{AfcError, Result, WaitClass};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Messages at or below this wire size (one TCP segment) are small for Nagle.
const NAGLE_THRESHOLD: u32 = 1448;

/// Network timing/behaviour configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way wire+stack latency per message.
    pub hop_latency: Duration,
    /// Apply small-packet coalescing delay (TCP_NODELAY unset).
    pub nagle: bool,
    /// Extra delay Nagle imposes on small messages.
    pub nagle_delay: Duration,
    /// Per-message CPU burned by the connection thread, or by the sending
    /// thread for a message its receiver takes (protocol work,
    /// checksumming). Zero by default; the scale-out harness raises it.
    pub cpu_per_msg: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hop_latency: Duration::from_micros(80),
            nagle: false,
            // Nagle + delayed-ACK interaction on small segments; Linux's
            // delayed-ACK floor is tens of ms — 2 ms is a conservative
            // stand-in for the KRBD-on-CentOS-7 behaviour the paper hit.
            nagle_delay: Duration::from_millis(2),
            cpu_per_msg: Duration::ZERO,
        }
    }
}

/// Receives one endpoint's messages. Each is first offered to
/// [`Self::take`] on the sending thread; one handed back is dispatched at
/// its arrival on its connection's delivery thread. Implementations must
/// be thread-safe: every inbound connection dispatches from its own
/// thread.
pub trait Dispatcher<M>: Send + Sync {
    /// Handle one message from `from`, at its arrival.
    fn dispatch(&self, from: Addr, msg: M);

    /// Take a message from `from` on the sending thread, before it arrives
    /// at `arrival`: `None` when taken, the message back to have it
    /// dispatched at its arrival. A taken message's effects must be
    /// invisible until `arrival`; what the receiver does with it may run
    /// here, or later on this thread, but shows no earlier. Called with no
    /// fabric lock held, so it may send; the sender's own locks may be
    /// held. By default nothing is taken.
    fn take(&self, _from: Addr, msg: M, _arrival: Instant) -> Option<M> {
        Some(msg)
    }
}

/// Blanket impl so closures can act as dispatchers in tests.
impl<M, F: Fn(Addr, M) + Send + Sync> Dispatcher<M> for F {
    fn dispatch(&self, from: Addr, msg: M) {
        self(from, msg)
    }
}

/// One inbound connection.
struct Conn<M> {
    /// The receiving endpoint's.
    dispatcher: Arc<dyn Dispatcher<M>>,
    /// The arrival of the last plain send: a plain send never arrives
    /// before one sent earlier on its connection.
    floor: Mutex<Instant>,
    /// Made the first time the receiver hands a message back.
    lane: OnceLock<Arc<Lane<M>>>,
}

/// What a delivery thread is doing, so a sender wakes it only when it
/// must.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activity {
    /// Delivering, or about to look at its queue again.
    Busy,
    /// Nothing queued: any arrival wakes it.
    Idle,
    /// Asleep until this arrival: only an earlier one wakes it.
    Until(Instant),
}

struct LaneState<M> {
    /// Held messages by arrival; ties keep send order.
    queue: BTreeMap<(Instant, u64), M>,
    next_seq: u64,
    activity: Activity,
    closed: bool,
}

/// One connection's delivery thread: the messages its receiver handed
/// back, held by arrival, and the thread that dispatches them.
struct Lane<M> {
    from: Addr,
    dispatcher: Arc<dyn Dispatcher<M>>,
    state: Mutex<LaneState<M>>,
    cv: Condvar,
    /// Taken by the close that joins it.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl<M: Send + 'static> Lane<M> {
    /// Start the `from → to` connection's delivery thread.
    fn spawn(
        from: Addr,
        to: Addr,
        dispatcher: Arc<dyn Dispatcher<M>>,
        cfg: NetConfig,
    ) -> Result<Arc<Self>> {
        let lane = Arc::new(Lane {
            from,
            dispatcher,
            state: Mutex::new(LaneState {
                queue: BTreeMap::new(),
                next_seq: 0,
                activity: Activity::Busy,
                closed: false,
            }),
            cv: Condvar::new(),
            thread: Mutex::new(None),
        });
        let l = Arc::clone(&lane);
        let thread = std::thread::Builder::new()
            .name(format!("msgr-{from}-{to}"))
            .spawn(move || l.deliver_loop(&cfg))
            .map_err(|e| AfcError::Io(format!("spawn messenger thread: {e}")))?;
        *lane.thread.lock() = Some(thread);
        Ok(lane)
    }

    /// Hold `msg` until `arrival`. False once the lane is closed.
    fn push(&self, arrival: Instant, msg: M) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.insert((arrival, seq), msg);
        let wake = match st.activity {
            Activity::Busy => false,
            Activity::Idle => true,
            Activity::Until(t) => arrival < t,
        };
        if wake {
            st.activity = Activity::Busy;
            drop(st);
            self.cv.notify_one();
        }
        true
    }

    /// Refuse further messages and join the thread once it has delivered
    /// what it holds.
    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }

    /// Sleep once for the earliest arrival (the calibrated wait, booked to
    /// `model.net`, cut short by an earlier arrival), then deliver
    /// everything due.
    fn deliver_loop(&self, cfg: &NetConfig) {
        let mut due = Vec::new();
        let mut st = self.state.lock();
        loop {
            let now = Instant::now();
            while let Some(head) = st.queue.first_entry() {
                if head.key().0 > now {
                    break;
                }
                due.push(head.remove());
            }
            if !due.is_empty() {
                st.activity = Activity::Busy;
                drop(st);
                for msg in due.drain(..) {
                    if cfg.cpu_per_msg > Duration::ZERO {
                        burn_cpu(cfg.cpu_per_msg);
                    }
                    self.dispatcher.dispatch(self.from, msg);
                }
                st = self.state.lock();
                continue;
            }
            let Some(&(next, _)) = st.queue.keys().next() else {
                if st.closed {
                    return;
                }
                st.activity = Activity::Idle;
                self.cv.wait(&mut st);
                continue;
            };
            let Some(wait) = ledger().begin(WaitClass::Net, next) else {
                continue;
            };
            if let Some(target) = wait.sleep_target() {
                st.activity = Activity::Until(next);
                while st.activity == Activity::Until(next)
                    && !self.cv.wait_until(&mut st, target).timed_out()
                {}
                if st.activity != Activity::Until(next) {
                    wait.interrupted();
                    continue;
                }
            }
            st.activity = Activity::Busy;
            drop(st);
            wait.finish();
            st = self.state.lock();
        }
    }
}

struct EndpointState<M> {
    dispatcher: Arc<dyn Dispatcher<M>>,
    /// Inbound connections keyed by sender address.
    conns: HashMap<Addr, Arc<Conn<M>>>,
}

impl<M: Send + 'static> EndpointState<M> {
    /// Wind the endpoint down: each of its connection threads delivers
    /// what it holds and exits.
    fn close(self) {
        for conn in self.conns.into_values() {
            if let Some(lane) = conn.lane.get() {
                lane.close();
            }
        }
    }
}

struct NetInner<M> {
    endpoints: HashMap<Addr, EndpointState<M>>,
    shutdown: bool,
}

/// Fault-injection hookup for a fabric: a registry plus a classifier that
/// maps each in-flight message to a fault site (or `None` to exempt it).
/// The fabric itself is message-type-agnostic, so the owner supplies the
/// classification (e.g. `afc-core` maps `OsdMsg::RepAck` → `NetSite::RepAck`).
type ClassifyFn<M> = Box<dyn Fn(Addr, Addr, &M) -> Option<FaultSite> + Send + Sync>;

struct FaultHook<M> {
    registry: Arc<FaultRegistry>,
    classify: ClassifyFn<M>,
    clone_msg: Box<dyn Fn(&M) -> M + Send + Sync>,
}

/// The in-process network fabric.
pub struct Network<M: Send + 'static> {
    cfg: NetConfig,
    inner: RwLock<NetInner<M>>,
    msgs: Counter,
    bytes: Counter,
    conns: Counter,
    threads: Counter,
    taken: Counter,
    nagled: Counter,
    dropped: Counter,
    duplicated: Counter,
    faults: OnceLock<FaultHook<M>>,
}

impl<M: Send + 'static> Network<M> {
    /// Create a network with `cfg`.
    pub fn new(cfg: NetConfig) -> Arc<Self> {
        Arc::new(Network {
            cfg,
            inner: RwLock::new(NetInner {
                endpoints: HashMap::new(),
                shutdown: false,
            }),
            msgs: Counter::new(),
            bytes: Counter::new(),
            conns: Counter::new(),
            threads: Counter::new(),
            taken: Counter::new(),
            nagled: Counter::new(),
            dropped: Counter::new(),
            duplicated: Counter::new(),
            faults: OnceLock::new(),
        })
    }

    /// Wire a fault registry into message delivery. `classify` names the
    /// fault site for each message (return `None` to exempt it). Matching
    /// specs then drop, delay, duplicate, or error the send. First attach
    /// wins; with no registry (or a disarmed one) delivery cost is a single
    /// relaxed atomic load.
    pub fn attach_faults(
        &self,
        registry: Arc<FaultRegistry>,
        classify: impl Fn(Addr, Addr, &M) -> Option<FaultSite> + Send + Sync + 'static,
    ) where
        M: Clone,
    {
        let _ = self.faults.set(FaultHook {
            registry,
            classify: Box::new(classify),
            clone_msg: Box::new(M::clone),
        });
    }

    /// Register an endpoint whose messages `dispatcher` receives, and get
    /// its sending handle.
    pub fn register(
        self: &Arc<Self>,
        addr: Addr,
        dispatcher: Arc<dyn Dispatcher<M>>,
    ) -> Result<Messenger<M>> {
        let mut inner = self.inner.write();
        if inner.shutdown {
            return Err(AfcError::ShutDown("network".into()));
        }
        if inner.endpoints.contains_key(&addr) {
            return Err(AfcError::AlreadyExists(format!("endpoint {addr}")));
        }
        inner.endpoints.insert(
            addr,
            EndpointState {
                dispatcher,
                conns: HashMap::new(),
            },
        );
        Ok(Messenger {
            addr,
            net: Arc::clone(self),
        })
    }

    /// Remove an endpoint; its inbound connection threads wind down.
    pub fn unregister(&self, addr: Addr) {
        let state = self.inner.write().endpoints.remove(&addr);
        if let Some(state) = state {
            state.close();
        }
    }

    /// Shut the whole fabric down, joining every connection thread.
    pub fn shutdown(&self) {
        let eps = {
            let mut inner = self.inner.write();
            inner.shutdown = true;
            std::mem::take(&mut inner.endpoints)
        };
        eps.into_values().for_each(EndpointState::close);
    }

    /// Register the network's counters into a cluster metric registry as
    /// `net.{msgs,bytes,conns,threads,taken,nagled,dropped,duplicated}`:
    /// `threads` counts delivery threads spawned (one per connection whose
    /// receiver handed a message back), `taken` messages a receiver took
    /// on the sending thread.
    pub fn attach_metrics(&self, m: &Metrics) {
        let fields: [(&str, &Counter); 8] = [
            ("msgs", &self.msgs),
            ("bytes", &self.bytes),
            ("conns", &self.conns),
            ("threads", &self.threads),
            ("taken", &self.taken),
            ("nagled", &self.nagled),
            ("dropped", &self.dropped),
            ("duplicated", &self.duplicated),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("net.{name}"), cell);
        }
    }

    /// Put `msg` on the `from → to` connection, to leave at `at` (now when
    /// `None` or past) and arrive one hop later: offered to the receiver
    /// on this thread after the registry lock is released, and onto the
    /// connection's delivery lane if handed back.
    fn deliver(
        &self,
        from: Addr,
        to: Addr,
        msg: M,
        wire_bytes: u32,
        at: Option<Instant>,
    ) -> Result<()> {
        // Fault injection happens "on the wire": a Drop is invisible to the
        // sender (it believes the send succeeded), a Delay stretches the
        // hop, a Duplicate arrives twice on the same connection, and an
        // Error is a hard connection failure surfaced to the sender.
        let mut extra_delay = Duration::ZERO;
        let mut duplicate = None;
        if let Some(hook) = self.faults.get() {
            if hook.registry.is_armed() {
                if let Some(site) = (hook.classify)(from, to, &msg) {
                    match hook.registry.check(site) {
                        None => {}
                        Some(FaultKind::Drop) => {
                            self.dropped.inc();
                            return Ok(());
                        }
                        Some(FaultKind::Delay(d)) => extra_delay = d,
                        Some(FaultKind::Duplicate) => {
                            self.duplicated.inc();
                            duplicate = Some((hook.clone_msg)(&msg));
                        }
                        Some(FaultKind::Error) | Some(FaultKind::Torn) => {
                            return Err(AfcError::Io(format!("injected network fault at {site}")));
                        }
                    }
                }
            }
        }
        let conn = self.conn(from, to)?;
        let now = Instant::now();
        let mut departed = at.map_or(now, |at| at.max(now)) + extra_delay;
        if self.cfg.nagle && wire_bytes <= NAGLE_THRESHOLD {
            // Small payload held back by the coalescing window.
            departed += self.cfg.nagle_delay;
            self.nagled.inc();
        }
        self.msgs.inc();
        self.bytes.add(wire_bytes as u64);
        let mut arrival = departed + self.cfg.hop_latency;
        if at.is_none() {
            let mut floor = conn.floor.lock();
            *floor = arrival.max(*floor);
            arrival = *floor;
        }
        for (copy, msg) in std::iter::once(msg).chain(duplicate).enumerate() {
            // The sending thread does the protocol work of a message taken.
            let Some(msg) = conn.dispatcher.take(from, msg, arrival) else {
                self.burn_msg_cpu();
                self.taken.inc();
                continue;
            };
            let pushed = self
                .lane(from, to, &conn)
                .map(|lane| lane.push(arrival, msg));
            // The duplicate is best-effort: if the connection closed after
            // the first send, it is moot.
            if copy == 0 && !pushed? {
                return Err(AfcError::Disconnected(format!("connection {from}->{to}")));
            }
        }
        Ok(())
    }

    /// The per-message protocol CPU, on the thread that takes the message.
    fn burn_msg_cpu(&self) {
        if self.cfg.cpu_per_msg > Duration::ZERO {
            burn_cpu(self.cfg.cpu_per_msg);
        }
    }

    /// The `from → to` connection. Steady state reads the registry shared;
    /// only a connection's first message takes it exclusively, to create
    /// it.
    fn conn(&self, from: Addr, to: Addr) -> Result<Arc<Conn<M>>> {
        // A shut-down fabric has no endpoints left.
        let missing = |down: bool| {
            if down {
                AfcError::ShutDown("network".into())
            } else {
                AfcError::NotFound(format!("endpoint {to}"))
            }
        };
        let inner = self.inner.read();
        let state = inner
            .endpoints
            .get(&to)
            .ok_or_else(|| missing(inner.shutdown))?;
        if let Some(conn) = state.conns.get(&from) {
            return Ok(Arc::clone(conn));
        }
        drop(inner);
        let mut inner = self.inner.write();
        let down = inner.shutdown;
        let state = inner.endpoints.get_mut(&to).ok_or_else(|| missing(down))?;
        let conn = state.conns.entry(from).or_insert_with(|| {
            self.conns.inc();
            Arc::new(Conn {
                dispatcher: Arc::clone(&state.dispatcher),
                floor: Mutex::new(Instant::now()),
                lane: OnceLock::new(),
            })
        });
        Ok(Arc::clone(conn))
    }

    /// The `from → to` connection's delivery lane, made the first time its
    /// receiver hands a message back. A connection removed since gets none
    /// (`Disconnected`); a thread that cannot be spawned is the sender's
    /// `Io` error.
    fn lane<'c>(&self, from: Addr, to: Addr, conn: &'c Arc<Conn<M>>) -> Result<&'c Lane<M>> {
        if let Some(lane) = conn.lane.get() {
            return Ok(lane);
        }
        // Published under the registry lock, so the `close` that removes
        // the connection sees it.
        let inner = self.inner.write();
        if let Some(lane) = conn.lane.get() {
            return Ok(lane);
        }
        if !inner
            .endpoints
            .get(&to)
            .and_then(|s| s.conns.get(&from))
            .is_some_and(|c| Arc::ptr_eq(c, conn))
        {
            return Err(AfcError::Disconnected(format!("connection {from}->{to}")));
        }
        let lane = Lane::spawn(from, to, Arc::clone(&conn.dispatcher), self.cfg.clone())?;
        self.threads.inc();
        Ok(conn.lane.get_or_init(|| lane))
    }
}

/// Burn approximately `d` of CPU (used to model protocol work; only the
/// scale-out harness enables it).
fn burn_cpu(d: Duration) {
    let end = Instant::now() + d;
    let mut x = 0u64;
    while Instant::now() < end {
        for i in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
}

/// Sending handle bound to a registered endpoint address.
pub struct Messenger<M: Send + 'static> {
    addr: Addr,
    net: Arc<Network<M>>,
}

impl<M: Send + 'static> Messenger<M> {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Send `msg` (`wire_bytes` on the wire) to `to`. Plain sends on one
    /// connection are delivered in send order.
    pub fn send(&self, to: Addr, msg: M, wire_bytes: u32) -> Result<()> {
        self.net.deliver(self.addr, to, msg, wire_bytes, None)
    }

    /// Send `msg` to leave at `at` (now, if that has passed). It arrives
    /// one hop later: after any message on its connection that leaves
    /// earlier and before any that leaves later, whichever was sent first.
    pub fn send_at(&self, to: Addr, msg: M, wire_bytes: u32, at: Instant) -> Result<()> {
        self.net.deliver(self.addr, to, msg, wire_bytes, Some(at))
    }

    /// The owning network.
    pub fn network(&self) -> &Arc<Network<M>> {
        &self.net
    }
}

impl<M: Send + 'static> Clone for Messenger<M> {
    fn clone(&self) -> Self {
        Messenger {
            addr: self.addr,
            net: Arc::clone(&self.net),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::{ClientId, OsdId};
    use parking_lot::Mutex;

    fn client(n: u64) -> Addr {
        Addr::Client(ClientId(n))
    }

    fn osd(n: u32) -> Addr {
        Addr::Osd(OsdId(n))
    }

    /// What an endpoint took in: sender, message, and the first instant it
    /// could be observed — when a delivery thread dispatched it, or the
    /// arrival it was taken with.
    type Got<M> = Arc<Mutex<Vec<(Addr, M, Instant)>>>;

    /// Takes every message it is offered.
    struct TakeAll<M>(Got<M>);

    impl<M: Send> Dispatcher<M> for TakeAll<M> {
        fn dispatch(&self, _: Addr, _: M) {
            unreachable!("every message is taken");
        }

        fn take(&self, from: Addr, msg: M, arrival: Instant) -> Option<M> {
            self.0.lock().push((from, msg, arrival));
            None
        }
    }

    /// Register `addr` to collect what it is sent: behind delivery threads,
    /// or taking everything on the sending thread.
    fn collector<M: Send + 'static>(net: &Arc<Network<M>>, addr: Addr, take_all: bool) -> Got<M> {
        let got: Got<M> = Arc::default();
        let g = Arc::clone(&got);
        let receiver: Arc<dyn Dispatcher<M>> = if take_all {
            Arc::new(TakeAll(g))
        } else {
            Arc::new(move |from, m| g.lock().push((from, m, Instant::now())))
        };
        net.register(addr, receiver).unwrap();
        got
    }

    /// Wait until `got` holds `n` messages; fail after 10 s.
    fn wait_for<M>(got: &Got<M>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.lock().len() < n {
            let len = got.lock().len();
            assert!(
                Instant::now() < deadline,
                "{len} of {n} messages after 10 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn msgs<M: Clone>(got: &Got<M>) -> Vec<M> {
        got.lock().iter().map(|(_, m, _)| m.clone()).collect()
    }

    #[test]
    fn send_and_dispatch() {
        let net: Arc<Network<String>> = Network::new(NetConfig::default());
        let got = collector(&net, osd(0), false);
        let m = net
            .register(client(1), Arc::new(|_, _: String| {}))
            .unwrap();
        m.send(osd(0), "hello".into(), 100).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let got = got.lock();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, got[0].1.as_str()), (client(1), "hello"));
        net.shutdown();
    }

    #[test]
    fn per_connection_fifo_order() {
        for take_all in [false, true] {
            let net: Arc<Network<u64>> = Network::new(NetConfig::default());
            let got = collector(&net, osd(0), take_all);
            let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
            for i in 0..500u64 {
                m.send(osd(0), i, 64).unwrap();
            }
            wait_for(&got, 500);
            let got = got.lock();
            assert!(
                got.windows(2).all(|w| w[0].1 < w[1].1 && w[0].2 <= w[1].2),
                "take_all={take_all}: order violated"
            );
            net.shutdown();
        }
    }

    /// Large then small on one connection: only the small one is held
    /// back. Small then large on another: the large one waits behind it.
    #[test]
    fn nagle_delays_small_messages_only() {
        const DELAY: Duration = Duration::from_millis(20);
        for take_all in [false, true] {
            let cfg = NetConfig {
                nagle: true,
                nagle_delay: DELAY,
                ..NetConfig::default()
            };
            let net: Arc<Network<Instant>> = Network::new(cfg);
            let got = collector(&net, osd(0), take_all);
            let a = net
                .register(client(1), Arc::new(|_, _: Instant| {}))
                .unwrap();
            let b = net
                .register(client(2), Arc::new(|_, _: Instant| {}))
                .unwrap();
            a.send(osd(0), Instant::now(), 64 * 1024).unwrap();
            a.send(osd(0), Instant::now(), 512).unwrap();
            b.send(osd(0), Instant::now(), 512).unwrap();
            b.send(osd(0), Instant::now(), 64 * 1024).unwrap();
            wait_for(&got, 4);
            let lat = |from: Addr| -> Vec<Duration> {
                let got = got.lock();
                let of = got.iter().filter(|(f, ..)| *f == from);
                of.map(|&(_, sent, seen)| seen - sent).collect()
            };
            let a = lat(client(1));
            assert!(
                a[0] < DELAY,
                "take_all={take_all}: large delayed: {:?}",
                a[0]
            );
            assert!(
                a[1] >= DELAY,
                "take_all={take_all}: small not delayed: {:?}",
                a[1]
            );
            assert!(
                lat(client(2))[0] >= DELAY,
                "take_all={take_all}: small not delayed"
            );
            let got = got.lock();
            let b: Vec<_> = got.iter().filter(|(f, ..)| *f == client(2)).collect();
            assert!(
                b[0].1 < b[1].1 && b[0].2 <= b[1].2,
                "take_all={take_all}: large overtook a nagled small one"
            );
            assert_eq!(net.nagled.get(), 2);
            net.shutdown();
        }
    }

    #[test]
    fn distinct_connections_get_distinct_threads() {
        let net: Arc<Network<()>> = Network::new(NetConfig::default());
        net.register(osd(0), Arc::new(|_, ()| {})).unwrap();
        let a = net.register(client(1), Arc::new(|_, ()| {})).unwrap();
        let b = net.register(client(2), Arc::new(|_, ()| {})).unwrap();
        a.send(osd(0), (), 1).unwrap();
        b.send(osd(0), (), 1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(net.conns.get(), 2);
        assert_eq!(net.threads.get(), 2);
        assert_eq!(net.msgs.get(), 2);
        net.shutdown();
    }

    /// Connections to a receiver that takes everything get no thread:
    /// taking happens on the sender, and unregistering or shutting down has
    /// nothing to join.
    #[test]
    fn connections_to_a_receiver_that_takes_everything_spawn_no_thread() {
        let net: Arc<Network<u64>> = Network::new(NetConfig::default());
        let got = collector(&net, client(1), true);
        let osds: Vec<_> = (0..3)
            .map(|n| net.register(osd(n), Arc::new(|_, _: u64| {})).unwrap())
            .collect();
        for (i, m) in osds.iter().enumerate() {
            m.send(client(1), i as u64, 64).unwrap();
            m.send_at(client(1), 10 + i as u64, 64, Instant::now())
                .unwrap();
        }
        // Taken before `send` returned.
        assert_eq!(got.lock().len(), 6);
        assert_eq!((net.conns.get(), net.taken.get()), (3, 6));
        assert_eq!(net.threads.get(), 0);
        net.unregister(client(1));
        assert!(matches!(
            osds[0].send(client(1), 9, 64),
            Err(AfcError::NotFound(_))
        ));
        let got = collector(&net, client(1), true);
        osds[1].send(client(1), 7, 64).unwrap();
        net.shutdown();
        assert_eq!(msgs(&got), vec![7]);
        assert_eq!(net.threads.get(), 0);
    }

    /// Unregistering a receiver waits for its delivery threads: a message
    /// handed back and not yet due is dispatched once, at its arrival,
    /// before `unregister` returns.
    #[test]
    fn unregister_dispatches_a_held_message_once_before_it_returns() {
        let cfg = NetConfig::default();
        let hop = cfg.hop_latency;
        let net: Arc<Network<u64>> = Network::new(cfg);
        let got = collector(&net, osd(0), false);
        let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
        let at = Instant::now() + Duration::from_millis(20);
        m.send_at(osd(0), 1, 64, at).unwrap();
        assert_eq!(net.threads.get(), 1);
        net.unregister(osd(0));
        assert_eq!(msgs(&got), vec![1], "not dispatched exactly once");
        assert!(got.lock()[0].2 >= at + hop, "dispatched before its arrival");
        assert!(matches!(m.send(osd(0), 2, 64), Err(AfcError::NotFound(_))));
        net.shutdown();
        assert_eq!(msgs(&got), vec![1]);
    }

    /// Takes the odd payloads, recorded with their arrival; hands the even
    /// ones back.
    struct TakeOdd(Got<u64>);

    impl Dispatcher<u64> for TakeOdd {
        fn dispatch(&self, from: Addr, m: u64) {
            self.0.lock().push((from, m, Instant::now()));
        }

        fn take(&self, from: Addr, m: u64, arrival: Instant) -> Option<u64> {
            if m.is_multiple_of(2) {
                return Some(m);
            }
            self.0.lock().push((from, m, arrival));
            None
        }
    }

    /// A dispatcher is offered every message, plain or stamped, on the
    /// sending thread with its arrival (a duplicate too); one it hands back
    /// is dispatched at that arrival.
    #[test]
    fn a_dispatcher_is_offered_every_message_on_the_sending_thread() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec, NetSite};
        let cfg = NetConfig::default();
        let hop = cfg.hop_latency;
        let net: Arc<Network<u64>> = Network::new(cfg);
        let got: Got<u64> = Arc::default();
        net.register(osd(0), Arc::new(TakeOdd(Arc::clone(&got))))
            .unwrap();
        let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
        let reg = Arc::new(FaultRegistry::new());
        net.attach_faults(Arc::clone(&reg), |_, _, m: &u64| {
            (*m == 5).then_some(FaultSite::Net(NetSite::Request))
        });
        reg.install(FaultSpec::new(
            FaultSite::Net(NetSite::Request),
            FaultKind::Duplicate,
        ));
        let at = Instant::now() + Duration::from_millis(5);
        m.send_at(osd(0), 1, 64, at).unwrap();
        assert_eq!(msgs(&got), vec![1], "taken before `send_at` returned");
        assert_eq!(got.lock()[0].2, at + hop, "offered with its arrival");
        m.send_at(osd(0), 2, 64, at).unwrap();
        let sent = Instant::now();
        m.send(osd(0), 3, 64).unwrap();
        assert_eq!(msgs(&got), vec![1, 3], "a plain send is offered too");
        assert!(
            got.lock()[1].2 >= sent + hop,
            "offered with an early arrival"
        );
        m.send(osd(0), 4, 64).unwrap();
        m.send_at(osd(0), 5, 64, at).unwrap();
        assert_eq!(msgs(&got), vec![1, 3, 5, 5], "the duplicate is offered too");
        wait_for(&got, 6);
        assert_eq!(msgs(&got), vec![1, 3, 5, 5, 4, 2]);
        assert!(
            got.lock()[4].2 >= sent + hop,
            "handed back, dispatched early"
        );
        assert!(got.lock()[5].2 >= at + hop, "handed back, dispatched early");
        assert_eq!((net.taken.get(), net.msgs.get()), (4, 5));
        net.shutdown();
    }

    /// A receiver that takes every message gets no delivery thread, however
    /// many it is sent; the first one it hands back gets its connection
    /// one, and that message is dispatched no earlier than its arrival.
    #[test]
    fn a_connection_gets_a_thread_only_when_its_receiver_hands_a_message_back() {
        let cfg = NetConfig::default();
        let hop = cfg.hop_latency;
        let net: Arc<Network<u64>> = Network::new(cfg);
        let got: Got<u64> = Arc::default();
        net.register(osd(0), Arc::new(TakeOdd(Arc::clone(&got))))
            .unwrap();
        let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
        for i in 0..200u64 {
            match i % 2 {
                0 => m.send(osd(0), 2 * i + 1, 64).unwrap(),
                _ => m.send_at(osd(0), 2 * i + 1, 64, Instant::now()).unwrap(),
            }
        }
        assert_eq!(got.lock().len(), 200);
        assert_eq!((net.conns.get(), net.taken.get()), (1, 200));
        assert_eq!(net.threads.get(), 0, "a thread for taken messages");
        let sent = Instant::now();
        m.send(osd(0), 2, 64).unwrap();
        assert_eq!(net.threads.get(), 1);
        wait_for(&got, 201);
        let (_, first, seen) = got.lock()[200];
        assert_eq!(first, 2);
        assert!(seen >= sent + hop, "dispatched before its arrival");
        m.send(osd(0), 4, 64).unwrap();
        wait_for(&got, 202);
        assert_eq!(net.threads.get(), 1, "one thread per connection");
        net.shutdown();
    }

    #[test]
    fn unknown_destination_errors() {
        let net: Arc<Network<()>> = Network::new(NetConfig::default());
        let m = net.register(client(1), Arc::new(|_, ()| {})).unwrap();
        assert!(matches!(m.send(osd(9), (), 1), Err(AfcError::NotFound(_))));
        net.shutdown();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let net: Arc<Network<()>> = Network::new(NetConfig::default());
        net.register(osd(0), Arc::new(|_, ()| {})).unwrap();
        assert!(net.register(osd(0), Arc::new(|_, ()| {})).is_err());
        assert!(net
            .register(osd(0), Arc::new(TakeAll::<()>(Arc::default())))
            .is_err());
        net.shutdown();
    }

    #[test]
    fn shutdown_rejects_further_traffic() {
        let net: Arc<Network<()>> = Network::new(NetConfig::default());
        let m = net.register(client(1), Arc::new(|_, ()| {})).unwrap();
        net.shutdown();
        assert!(m.send(client(1), (), 1).is_err());
        assert!(net.register(osd(0), Arc::new(|_, ()| {})).is_err());
    }

    /// Eight senders, every third message stamped up to 2 ms ahead. Each
    /// message carries the earliest instant it may be observed at.
    #[test]
    fn concurrent_senders_all_delivered() {
        for take_all in [false, true] {
            let cfg = NetConfig::default();
            let hop = cfg.hop_latency;
            let net: Arc<Network<Instant>> = Network::new(cfg);
            let got = collector(&net, osd(0), take_all);
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    let m = net
                        .register(client(t), Arc::new(|_, _: Instant| {}))
                        .unwrap();
                    s.spawn(move || {
                        for i in 0..200u64 {
                            if i % 3 == 0 {
                                let at = Instant::now() + Duration::from_micros(i * 10);
                                m.send_at(osd(0), at + hop, 128, at).unwrap();
                            } else {
                                m.send(osd(0), Instant::now() + hop, 128).unwrap();
                            }
                        }
                    });
                }
            });
            wait_for(&got, 1600);
            assert_eq!(net.msgs.get(), 1600);
            net.shutdown();
            let got = got.lock();
            assert_eq!(got.len(), 1600, "take_all={take_all}: delivered twice");
            let early = got.iter().filter(|&&(_, due, seen)| seen < due).count();
            assert_eq!(early, 0, "take_all={take_all}: observable early");
        }
    }

    /// Every message, plain or stamped, is observable no earlier than its
    /// departure plus the hop.
    #[test]
    fn stamped_message_is_delivered_no_earlier_than_departure_plus_hop() {
        for take_all in [false, true] {
            let cfg = NetConfig::default();
            let hop = cfg.hop_latency;
            let net: Arc<Network<Instant>> = Network::new(cfg);
            let got = collector(&net, osd(0), take_all);
            let m = net
                .register(client(1), Arc::new(|_, _: Instant| {}))
                .unwrap();
            for ahead_us in [3_000u64, 0, 700, 150] {
                let at = Instant::now() + Duration::from_micros(ahead_us);
                m.send_at(osd(0), at + hop, 4096, at).unwrap();
                m.send(osd(0), Instant::now() + hop, 64).unwrap();
            }
            // A stamp in the past leaves now.
            let before = Instant::now();
            m.send_at(osd(0), before + hop, 4096, before - Duration::from_secs(1))
                .unwrap();
            wait_for(&got, 9);
            for &(_, due, seen) in got.lock().iter() {
                assert!(seen >= due, "take_all={take_all}: {:?} early", due - seen);
            }
            net.shutdown();
        }
    }

    #[test]
    fn plain_send_overtakes_an_earlier_stamped_one_that_leaves_later() {
        let net: Arc<Network<u64>> = Network::new(NetConfig::default());
        let got = collector(&net, osd(0), false);
        let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
        let at = Instant::now() + Duration::from_millis(20);
        m.send_at(osd(0), 1, 4096, at).unwrap();
        for i in 2..=4 {
            m.send(osd(0), i, 64).unwrap();
        }
        wait_for(&got, 4);
        assert_eq!(msgs(&got), vec![2, 3, 4, 1]);
        net.shutdown();
    }

    #[test]
    fn injected_drop_dup_delay_and_error() {
        use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec, NetSite};
        const DELAY: Duration = Duration::from_millis(30);
        const SITE: FaultSite = FaultSite::Net(NetSite::Request);
        for take_all in [false, true] {
            let net: Arc<Network<u64>> = Network::new(NetConfig {
                hop_latency: Duration::ZERO,
                ..NetConfig::default()
            });
            let got = collector(&net, osd(0), take_all);
            let m = net.register(client(1), Arc::new(|_, _: u64| {})).unwrap();
            let reg = Arc::new(FaultRegistry::new());
            // Only odd payloads are injectable; evens are exempt (classify
            // returning None must bypass the registry entirely).
            net.attach_faults(Arc::clone(&reg), |_, _, m: &u64| {
                (m % 2 == 1).then_some(SITE)
            });
            reg.install(FaultSpec::new(SITE, FaultKind::Drop));
            m.send(osd(0), 1, 64).unwrap(); // dropped silently
            m.send(osd(0), 2, 64).unwrap(); // exempt, delivered
            reg.install(FaultSpec::new(SITE, FaultKind::Duplicate));
            m.send(osd(0), 3, 64).unwrap(); // delivered twice
            reg.install(FaultSpec::new(SITE, FaultKind::Error));
            assert!(m.send(osd(0), 5, 64).is_err()); // surfaced to sender
            reg.install(FaultSpec::new(SITE, FaultKind::Delay(DELAY)));
            let t0 = Instant::now();
            m.send(osd(0), 7, 64).unwrap();
            wait_for(&got, 4);
            let seen = got.lock()[3].2;
            assert!(seen >= t0 + DELAY, "take_all={take_all}: delay not applied");
            assert_eq!(msgs(&got), vec![2, 3, 3, 7], "take_all={take_all}");
            assert_eq!(net.dropped.get(), 1);
            assert_eq!(net.duplicated.get(), 1);
            assert_eq!(net.taken.get(), if take_all { 4 } else { 0 });
            assert!(!reg.is_armed(), "all specs exhausted");
            net.shutdown();
        }
    }

    #[test]
    fn cpu_burn_slows_delivery() {
        for take_all in [false, true] {
            let cfg = NetConfig {
                cpu_per_msg: Duration::from_micros(500),
                hop_latency: Duration::ZERO,
                ..NetConfig::default()
            };
            let net: Arc<Network<()>> = Network::new(cfg);
            let got = collector(&net, osd(0), take_all);
            let m = net.register(client(1), Arc::new(|_, ()| {})).unwrap();
            let t0 = Instant::now();
            for _ in 0..20 {
                m.send(osd(0), (), 1).unwrap();
            }
            wait_for(&got, 20);
            let took = t0.elapsed();
            assert!(
                took >= Duration::from_millis(10),
                "take_all={take_all}: {took:?}"
            );
            net.shutdown();
        }
    }
}
