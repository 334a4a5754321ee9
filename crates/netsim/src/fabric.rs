//! The message fabric: registration, send/receive, failure injection.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::error::NetError;
use crate::stats::FabricStats;
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

/// Tracks how many bulk transfers currently occupy each link, so
/// concurrent transfers sharing a wire are each charged a fair (~1/N)
/// slice of its bandwidth. Links are keyed by unordered node pair;
/// loopback paths use the `(n, n)` key. Cheap to clone; clones share
/// the counters.
#[derive(Clone, Default)]
pub struct LinkMeter {
    inflight: Arc<Mutex<HashMap<(NodeId, NodeId), u32>>>,
}

impl fmt::Debug for LinkMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.inflight.lock();
        f.debug_struct("LinkMeter")
            .field("busy_links", &map.len())
            .finish()
    }
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl LinkMeter {
    /// A meter with no transfers in flight.
    pub fn new() -> Self {
        LinkMeter::default()
    }

    /// Mark a bulk transfer as occupying the `a`—`b` link. The returned
    /// guard releases the link share when dropped.
    pub fn begin(&self, a: NodeId, b: NodeId) -> LinkSlot {
        let key = link_key(a, b);
        *self.inflight.lock().entry(key).or_insert(0) += 1;
        LinkSlot {
            meter: self.clone(),
            key,
        }
    }

    /// Number of bulk transfers currently occupying the `a`—`b` link.
    pub fn inflight(&self, a: NodeId, b: NodeId) -> u32 {
        self.inflight
            .lock()
            .get(&link_key(a, b))
            .copied()
            .unwrap_or(0)
    }
}

/// RAII share of a link held by one in-flight bulk transfer; dropping it
/// returns the bandwidth slice to the link.
#[derive(Debug)]
pub struct LinkSlot {
    meter: LinkMeter,
    key: (NodeId, NodeId),
}

impl Drop for LinkSlot {
    fn drop(&mut self) {
        let mut map = self.meter.inflight.lock();
        if let Some(count) = map.get_mut(&self.key) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                map.remove(&self.key);
            }
        }
    }
}

/// A read-only view of the network used to price bulk transfers: a
/// topology plus (optionally) the live contention meter. Components that
/// move checkpoint data take a `NetView` instead of a bare [`Topology`],
/// so the same code prices transfers honestly whether or not anything
/// else is on the wire.
#[derive(Clone, Copy)]
pub struct NetView<'a> {
    topology: &'a Topology,
    meter: Option<&'a LinkMeter>,
}

impl fmt::Debug for NetView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetView")
            .field("nodes", &self.topology.len())
            .field("metered", &self.meter.is_some())
            .finish()
    }
}

impl<'a> NetView<'a> {
    /// A view that ignores contention (legacy cost model).
    pub fn uncontended(topology: &'a Topology) -> Self {
        NetView {
            topology,
            meter: None,
        }
    }

    /// A view that prices transfers against the live link meter.
    pub fn contended(topology: &'a Topology, meter: &'a LinkMeter) -> Self {
        NetView {
            topology,
            meter: Some(meter),
        }
    }

    /// Price moving `bytes` from `a` to `b` given the current number of
    /// transfers sharing the link (at least this one).
    pub fn cost(&self, a: NodeId, b: NodeId, bytes: usize) -> SimTime {
        let share = self.meter.map_or(1, |m| m.inflight(a, b).max(1));
        self.topology.contended_cost(a, b, bytes, share)
    }

    /// Occupy the `a`—`b` link for the duration of a bulk transfer, if
    /// this view meters contention. Hold the returned slot while copying
    /// so concurrent transfers see each other.
    pub fn begin_transfer(&self, a: NodeId, b: NodeId) -> Option<LinkSlot> {
        self.meter.map(|m| m.begin(a, b))
    }
}

/// Identifier of a registered endpoint (one per simulated process, daemon,
/// or tool connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// The [`Delivery::tag`] of a death notice: an endpoint this one
/// [watches](Fabric::watch) was killed. `src` is the dead endpoint, the
/// payload is empty, and the notice is queued after every message the
/// dead endpoint sent. No sender can use this tag.
pub const PEER_DOWN: u64 = u64::MAX;

/// The [`Delivery::tag`] of a wake-up ([`Fabric::wake`]): an event the
/// receiver waits for happened outside the fabric, so a thread parked in
/// [`Endpoint::recv`] returns and looks again. `src` is the woken
/// endpoint itself and the payload is empty. A wake that lands before the
/// receiver parks stays queued, so none is lost. No sender can use this
/// tag.
pub const WAKE: u64 = u64::MAX - 1;

/// How long [`Endpoint::recv`] polls its queue before it parks: about
/// the cost of one park/unpark hand-off between two threads, so a receive
/// that parks after all spends at most twice what parking alone costs,
/// while a reply that lands within the budget is taken without a
/// hand-off (EXPERIMENTS.md A23).
const RECV_SPIN: Duration = Duration::from_micros(5);

/// A message as seen by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Application-level tag (namespaced by the layers above).
    pub tag: u64,
    /// Payload bytes.
    pub payload: Bytes,
    /// Simulated wire time this message spent in transit.
    pub wire_time: SimTime,
}

struct Mailbox {
    node: NodeId,
    tx: Sender<Delivery>,
}

struct FabricInner {
    topology: Topology,
    next_id: AtomicU64,
    mailboxes: RwLock<HashMap<EndpointId, Mailbox>>,
    /// For each endpoint, the endpoints that get a [`PEER_DOWN`] notice
    /// when it is killed.
    watchers: Mutex<HashMap<EndpointId, Vec<EndpointId>>>,
    total_msgs: AtomicU64,
    total_bytes: AtomicU64,
    link_meter: LinkMeter,
}

/// Handle to the simulated network. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let boxes = self.inner.mailboxes.read();
        f.debug_struct("Fabric")
            .field("nodes", &self.inner.topology.len())
            .field("endpoints", &boxes.len())
            .finish()
    }
}

impl Fabric {
    /// Bring up a fabric over `topology`.
    pub fn new(topology: Topology) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                topology,
                next_id: AtomicU64::new(1),
                mailboxes: RwLock::new(HashMap::new()),
                watchers: Mutex::new(HashMap::new()),
                total_msgs: AtomicU64::new(0),
                total_bytes: AtomicU64::new(0),
                link_meter: LinkMeter::new(),
            }),
        }
    }

    /// The topology this fabric runs over.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The shared per-link contention meter. Bulk-transfer machinery
    /// (FILEM gathers) registers its in-flight copies here; messages sent
    /// through the fabric are charged the contended cost of their link.
    pub fn link_meter(&self) -> &LinkMeter {
        &self.inner.link_meter
    }

    /// A contention-aware pricing view over this fabric's topology.
    pub fn netview(&self) -> NetView<'_> {
        NetView::contended(&self.inner.topology, &self.inner.link_meter)
    }

    /// Register a new endpoint on `node`, returning its receive handle.
    ///
    /// # Panics
    /// Panics if `node` is not part of the topology.
    pub fn register(&self, node: NodeId) -> Endpoint {
        assert!(
            (node.0 as usize) < self.inner.topology.len(),
            "{node} is not in the topology"
        );
        let id = EndpointId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        self.inner
            .mailboxes
            .write()
            .insert(id, Mailbox { node, tx });
        Endpoint {
            id,
            node,
            fabric: self.clone(),
            rx: Mutex::new(rx),
        }
    }

    /// Send `payload` from `src` to `dst`.
    ///
    /// Returns the simulated wire time charged for the transfer. Delivery
    /// is reliable and per-sender FIFO (TCP-like, matching the transports
    /// the original implementation ran over).
    pub fn send(
        &self,
        src: EndpointId,
        dst: EndpointId,
        tag: u64,
        payload: Bytes,
    ) -> Result<SimTime, NetError> {
        if tag == PEER_DOWN || tag == WAKE {
            return Err(NetError::Unreachable { dst });
        }
        let boxes = self.inner.mailboxes.read();
        let src_node = boxes
            .get(&src)
            .map(|m| m.node)
            .ok_or(NetError::SenderDead { src })?;
        let mbox = boxes.get(&dst).ok_or(NetError::Unreachable { dst })?;
        // Messages share the wire with any in-flight bulk transfers: a
        // FILEM gather streaming over this link slows OOB traffic down.
        let share = self
            .inner
            .link_meter
            .inflight(src_node, mbox.node)
            .saturating_add(1);
        let wire_time =
            self.inner
                .topology
                .contended_cost(src_node, mbox.node, payload.len(), share);
        let bytes = payload.len() as u64;
        let delivery = Delivery {
            src,
            tag,
            payload,
            wire_time,
        };
        mbox.tx
            .send(delivery)
            .map_err(|_| NetError::Unreachable { dst })?;
        drop(boxes);

        self.inner.total_msgs.fetch_add(1, Ordering::Relaxed);
        self.inner.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(wire_time)
    }

    /// Kill an endpoint: simulates process death. Its queue is torn down;
    /// subsequent sends to it fail with [`NetError::Unreachable`]; blocked
    /// receivers on it wake with [`NetError::Disconnected`]. Every live
    /// endpoint that [watches](Fabric::watch) it gets one [`PEER_DOWN`]
    /// notice; no other endpoint hears of the death.
    pub fn kill(&self, ep: EndpointId) {
        let mut boxes = self.inner.mailboxes.write();
        if boxes.remove(&ep).is_none() {
            return;
        }
        let watchers = self.inner.watchers.lock().remove(&ep).unwrap_or_default();
        for w in watchers {
            if let Some(mbox) = boxes.get(&w) {
                let _ = mbox.tx.send(Self::notice(ep, PEER_DOWN));
            }
        }
    }

    /// Have `watcher` notified with a [`PEER_DOWN`] delivery when
    /// `target` is killed — at once, if `target` is already dead. An
    /// endpoint that serves requests must never watch anything: the
    /// notice is not a request.
    pub fn watch(&self, watcher: EndpointId, target: EndpointId) {
        let boxes = self.inner.mailboxes.read();
        if boxes.contains_key(&target) {
            self.inner.watchers.lock().entry(target).or_default().push(watcher);
        } else if let Some(mbox) = boxes.get(&watcher) {
            let _ = mbox.tx.send(Self::notice(target, PEER_DOWN));
        }
    }

    /// Post a [`WAKE`] to `ep`'s own queue. A dead `ep` is not woken.
    pub fn wake(&self, ep: EndpointId) {
        if let Some(mbox) = self.inner.mailboxes.read().get(&ep) {
            let _ = mbox.tx.send(Self::notice(ep, WAKE));
        }
    }

    fn notice(src: EndpointId, tag: u64) -> Delivery {
        Delivery {
            src,
            tag,
            payload: Bytes::new(),
            wire_time: SimTime::ZERO,
        }
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            total_msgs: self.inner.total_msgs.load(Ordering::Relaxed),
            total_bytes: self.inner.total_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Receiving side of a registered endpoint.
///
/// The sender side is addressed by [`EndpointId`] through the fabric, which
/// is how MPI-style any-to-any communication works here: there are no
/// per-pair connections to set up.
///
/// An endpoint is `Sync`: several threads of one process may receive on
/// it, and each message goes to exactly one of them. One thread receives
/// at a time; [`try_recv`](Endpoint::try_recv) and
/// [`recv_timeout`](Endpoint::recv_timeout) do not queue behind a thread
/// that is receiving, and [`recv`](Endpoint::recv) does once it parks.
pub struct Endpoint {
    id: EndpointId,
    node: NodeId,
    fabric: Fabric,
    rx: Mutex<Receiver<Delivery>>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("node", &self.node)
            .finish()
    }
}

impl Endpoint {
    /// This endpoint's id (its address for senders).
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Convenience: send from this endpoint.
    pub fn send_to(&self, dst: EndpointId, tag: u64, payload: Bytes) -> Result<SimTime, NetError> {
        self.fabric.send(self.id, dst, tag, payload)
    }

    /// Blocking receive: poll the queue for a short spin budget, then park
    /// with no timeout until a delivery arrives. Only a delivery ends the
    /// wait, so an event outside the fabric that the caller waits for must
    /// post a [`WAKE`] ([`Fabric::wake`]).
    ///
    /// Wakes with [`NetError::Disconnected`] once the endpoint has been
    /// killed *and* every already-queued message has been drained — killed
    /// processes may still have in-flight messages that coordination
    /// protocols need to observe.
    pub fn recv(&self) -> Result<Delivery, NetError> {
        let spin = Instant::now();
        while spin.elapsed() < RECV_SPIN {
            match self.try_recv() {
                Err(NetError::Empty) => std::hint::spin_loop(),
                done => return done,
            }
        }
        self.rx.lock().recv().map_err(|_| NetError::Disconnected)
    }

    /// Non-blocking receive.
    ///
    /// Reports [`NetError::Empty`] without waiting while another thread
    /// is receiving on this endpoint: that thread takes whatever arrives.
    pub fn try_recv(&self) -> Result<Delivery, NetError> {
        let Some(rx) = self.rx.try_lock() else {
            return Err(NetError::Empty);
        };
        rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => NetError::Empty,
            TryRecvError::Disconnected => NetError::Disconnected,
        })
    }

    /// Receive with a wall-clock timeout.
    ///
    /// If another thread is receiving on this endpoint, waits until that
    /// thread's receive returns and then reports [`NetError::Timeout`] at
    /// once, so the caller rechecks whatever the other thread delivered
    /// before it waits on the wire again.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, NetError> {
        let Some(rx) = self.rx.try_lock() else {
            drop(self.rx.lock());
            return Err(NetError::Timeout);
        };
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Dropping the receive handle is process exit: deregister so peers
        // see Unreachable rather than silently filling a dead queue.
        self.fabric.kill(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn two_node_fabric() -> Fabric {
        Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()))
    }

    #[test]
    fn send_and_receive() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let t = a.send_to(b.id(), 7, Bytes::from_static(b"hello")).unwrap();
        assert!(t > SimTime::ZERO);
        let d = b.recv().unwrap();
        assert_eq!(d.src, a.id());
        assert_eq!(d.tag, 7);
        assert_eq!(&d.payload[..], b"hello");
        assert_eq!(d.wire_time, t);
    }

    #[test]
    fn per_sender_fifo_order() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        for i in 0..100u64 {
            a.send_to(b.id(), i, Bytes::new()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(b.recv().unwrap().tag, i);
        }
    }

    #[test]
    fn unknown_destination_unreachable() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let ghost = EndpointId(9999);
        assert_eq!(
            a.send_to(ghost, 0, Bytes::new()),
            Err(NetError::Unreachable { dst: ghost })
        );
    }

    #[test]
    fn killed_endpoint_becomes_unreachable_and_sender_dead() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        fabric.kill(b.id());
        assert!(matches!(
            a.send_to(b.id(), 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
        fabric.kill(a.id());
        assert!(matches!(
            fabric.send(a.id(), b.id(), 0, Bytes::new()),
            Err(NetError::SenderDead { .. })
        ));
    }

    #[test]
    fn queued_messages_survive_kill_until_drained() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        a.send_to(b.id(), 1, Bytes::from_static(b"x")).unwrap();
        a.send_to(b.id(), 2, Bytes::from_static(b"y")).unwrap();
        fabric.kill(b.id());
        assert_eq!(b.recv().unwrap().tag, 1);
        assert_eq!(b.recv().unwrap().tag, 2);
        assert_eq!(b.recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn only_watchers_hear_of_a_death_after_its_last_message() {
        let fabric = Fabric::new(Topology::uniform(3, LinkSpec::gigabit_ethernet()));
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let bystander = fabric.register(NodeId(2));
        fabric.watch(a.id(), b.id());
        b.send_to(a.id(), 1, Bytes::from_static(b"last")).unwrap();
        b.send_to(bystander.id(), 1, Bytes::new()).unwrap();
        drop(b);
        assert_eq!(&a.recv().unwrap().payload[..], b"last");
        let notice = a.recv().unwrap();
        assert_eq!(notice.tag, PEER_DOWN);
        assert_eq!(a.try_recv().err(), Some(NetError::Empty), "one notice per death");
        assert_eq!(bystander.recv().unwrap().tag, 1);
        assert_eq!(bystander.try_recv().err(), Some(NetError::Empty));
        // Watching the dead is answered at once; nobody can send the tag.
        fabric.watch(bystander.id(), notice.src);
        assert_eq!(bystander.recv().unwrap(), notice);
        assert!(a.send_to(bystander.id(), PEER_DOWN, Bytes::new()).is_err());
    }

    /// Nobody can send a wake; one wake ends one parked receive, and a
    /// wake posted before the receive stays queued for it.
    #[test]
    fn one_wake_returns_one_blocked_receive() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        assert_eq!(
            a.send_to(b.id(), WAKE, Bytes::new()),
            Err(NetError::Unreachable { dst: b.id() })
        );
        std::thread::scope(|s| {
            let blocked = s.spawn(|| b.recv());
            while b.rx.try_lock().is_some() {
                std::thread::yield_now();
            }
            fabric.wake(b.id());
            let woken = blocked.join().unwrap().unwrap();
            assert_eq!((woken.src, woken.tag), (b.id(), WAKE));
        });
        assert_eq!(
            b.try_recv().err(),
            Some(NetError::Empty),
            "one delivery per wake"
        );
        fabric.wake(b.id());
        assert_eq!(b.recv().unwrap().tag, WAKE);
        // A dead endpoint is not woken.
        let dead = b.id();
        drop(b);
        fabric.wake(dead);
    }

    #[test]
    fn try_recv_and_timeout() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        assert_eq!(b.try_recv().err(), Some(NetError::Empty));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).err(),
            Some(NetError::Timeout)
        );
        a.send_to(b.id(), 5, Bytes::new()).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().tag, 5);
    }

    #[test]
    fn drop_deregisters() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b_id = {
            let b = fabric.register(NodeId(1));
            a.send_to(b.id(), 0, Bytes::new()).unwrap();
            b.id()
        };
        assert!(matches!(
            a.send_to(b_id, 0, Bytes::new()),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn stats_accounting() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        a.send_to(b.id(), 0, Bytes::from_static(b"1234")).unwrap();
        a.send_to(b.id(), 0, Bytes::from_static(b"56")).unwrap();
        b.recv().unwrap();
        let stats = fabric.stats();
        assert_eq!(stats.total_msgs, 2);
        assert_eq!(stats.total_bytes, 6);
    }

    #[test]
    fn cross_thread_messaging() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let a_id = a.id();
        let b_id = b.id();
        let fabric2 = fabric.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..1000u64 {
                fabric2
                    .send(a_id, b_id, i, Bytes::from(vec![0u8; 64]))
                    .unwrap();
            }
        });
        let mut seen = 0u64;
        while seen < 1000 {
            let d = b.recv().unwrap();
            assert_eq!(d.tag, seen);
            seen += 1;
        }
        producer.join().unwrap();
        drop(a);
    }

    /// The PML pattern: an app thread and a CRCP thread receive on one
    /// endpoint.
    #[test]
    fn one_endpoint_shared_by_two_receiving_threads() {
        const N: u64 = 1000;
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));

        // `try_recv` reports Empty at once while another thread is blocked
        // in a receive (waiting for it would hang: nothing is queued).
        std::thread::scope(|s| {
            let blocked = s.spawn(|| b.recv());
            while b.rx.try_lock().is_some() {
                std::thread::yield_now();
            }
            assert_eq!(b.try_recv().err(), Some(NetError::Empty));
            a.send_to(b.id(), N, Bytes::new()).unwrap();
            assert_eq!(blocked.join().unwrap().unwrap().tag, N);
        });

        // Two threads in `recv_timeout` get every message exactly once, and
        // `kill` wakes both with Disconnected only after the queue drains:
        // by then every message has been taken, and the other thread holds
        // at most one it has not counted yet.
        let start = std::sync::Barrier::new(3);
        let taken = AtomicU64::new(0);
        let got: Vec<Vec<u64>> = std::thread::scope(|s| {
            let receivers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut tags = Vec::new();
                        loop {
                            match b.recv_timeout(Duration::from_secs(60)) {
                                Ok(d) => {
                                    tags.push(d.tag);
                                    taken.fetch_add(1, Ordering::SeqCst);
                                }
                                Err(NetError::Timeout) => {}
                                Err(e) => {
                                    assert_eq!(e, NetError::Disconnected);
                                    assert!(taken.load(Ordering::SeqCst) >= N - 1);
                                    return tags;
                                }
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for i in 0..N {
                a.send_to(b.id(), i, Bytes::new()).unwrap();
            }
            fabric.kill(b.id());
            receivers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for tags in &got {
            assert!(tags.windows(2).all(|w| w[0] < w[1]), "out of queue order: {tags:?}");
        }
        let mut all = got.concat();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn link_meter_counts_and_releases() {
        let meter = LinkMeter::new();
        assert_eq!(meter.inflight(NodeId(0), NodeId(1)), 0);
        let s1 = meter.begin(NodeId(0), NodeId(1));
        let s2 = meter.begin(NodeId(1), NodeId(0)); // same unordered link
        assert_eq!(meter.inflight(NodeId(0), NodeId(1)), 2);
        assert_eq!(meter.inflight(NodeId(1), NodeId(0)), 2);
        drop(s1);
        assert_eq!(meter.inflight(NodeId(0), NodeId(1)), 1);
        drop(s2);
        assert_eq!(meter.inflight(NodeId(0), NodeId(1)), 0);
        // Other links are unaffected.
        let _s3 = meter.begin(NodeId(2), NodeId(3));
        assert_eq!(meter.inflight(NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn netview_prices_by_inflight_share() {
        let topo = Topology::uniform(2, LinkSpec::gigabit_ethernet());
        let meter = LinkMeter::new();
        let view = NetView::contended(&topo, &meter);
        let base = view.cost(NodeId(0), NodeId(1), 1 << 20);
        assert_eq!(base, topo.cost(NodeId(0), NodeId(1), 1 << 20));
        let _a = view.begin_transfer(NodeId(0), NodeId(1));
        let _b = view.begin_transfer(NodeId(0), NodeId(1));
        let contended = view.cost(NodeId(0), NodeId(1), 1 << 20);
        assert_eq!(contended, topo.contended_cost(NodeId(0), NodeId(1), 1 << 20, 2));
        assert!(contended > base);
        // Uncontended views never meter.
        let flat = NetView::uncontended(&topo);
        assert!(flat.begin_transfer(NodeId(0), NodeId(1)).is_none());
        assert_eq!(flat.cost(NodeId(0), NodeId(1), 1 << 20), base);
    }

    #[test]
    fn sends_slow_down_under_bulk_transfers() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let payload = Bytes::from(vec![0u8; 65536]);
        let quiet = a.send_to(b.id(), 0, payload.clone()).unwrap();
        let _slot = fabric.link_meter().begin(NodeId(0), NodeId(1));
        let busy = a.send_to(b.id(), 0, payload).unwrap();
        assert!(busy > quiet);
    }

    #[test]
    #[should_panic(expected = "not in the topology")]
    fn registering_on_unknown_node_panics() {
        let fabric = two_node_fabric();
        let _ = fabric.register(NodeId(7));
    }

    #[test]
    fn loopback_send_is_cheaper() {
        let fabric = two_node_fabric();
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        let c = fabric.register(NodeId(1));
        let payload = Bytes::from(vec![0u8; 65536]);
        let local = a.send_to(b.id(), 0, payload.clone()).unwrap();
        let remote = a.send_to(c.id(), 0, payload).unwrap();
        assert!(local < remote);
    }
}
