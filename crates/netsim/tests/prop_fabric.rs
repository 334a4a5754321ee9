//! Property tests on the fabric: reliability, per-sender FIFO and traffic
//! totals under randomized traffic, and the monotone price of a transfer.

use bytes::Bytes;
use netsim::{Fabric, LinkSpec, NetError, NodeId, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sent message is delivered exactly once, in per-sender order,
    /// regardless of the interleaving of senders.
    #[test]
    fn reliable_exactly_once_fifo(
        n_senders in 1usize..5,
        counts in vec(1usize..60, 1..5),
        nodes in 1u32..4,
    ) {
        let fabric = Fabric::new(Topology::uniform(nodes, LinkSpec::gigabit_ethernet()));
        let receiver = fabric.register(NodeId(0));
        let dst = receiver.id();
        let n_senders = n_senders.min(counts.len());

        let handles: Vec<_> = (0..n_senders)
            .map(|s| {
                let fabric = fabric.clone();
                let sender = fabric.register(NodeId((s as u32) % nodes));
                let count = counts[s];
                std::thread::spawn(move || {
                    for i in 0..count {
                        let payload = Bytes::from(vec![s as u8; i % 7 + 1]);
                        fabric.send(sender.id(), dst, i as u64, payload).unwrap();
                    }
                    sender.id()
                })
            })
            .collect();
        let sender_ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let total: usize = counts[..n_senders].iter().sum();
        let mut next_expected = vec![0u64; n_senders];
        for _ in 0..total {
            let d = receiver.recv().unwrap();
            let s = sender_ids.iter().position(|id| *id == d.src).unwrap();
            prop_assert_eq!(d.tag, next_expected[s], "per-sender FIFO violated");
            next_expected[s] += 1;
        }
        prop_assert_eq!(receiver.try_recv().err(), Some(NetError::Empty));
        for (s, &count) in counts[..n_senders].iter().enumerate() {
            prop_assert_eq!(next_expected[s], count as u64);
        }
    }

    /// The price of a transfer is monotone in payload size and never
    /// below the link latency.
    #[test]
    fn cost_model_monotone(a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let link = LinkSpec::gigabit_ethernet();
        let topo = Topology::uniform(2, link);
        let cost = |bytes| topo.cost(NodeId(0), NodeId(1), bytes);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cost(small) <= cost(large));
        prop_assert!(cost(small) >= link.latency);
    }

    /// Stats conservation: the fabric's totals are exactly the messages
    /// and payload bytes sent, whichever endpoint sent them and whatever
    /// was received.
    #[test]
    fn stats_conserve_bytes(sizes in vec(0usize..4096, 0..40)) {
        let fabric = Fabric::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()));
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let mut total = 0u64;
        for (i, s) in sizes.iter().enumerate() {
            let (from, to) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
            from.send_to(to.id(), 0, Bytes::from(vec![0u8; *s])).unwrap();
            total += *s as u64;
        }
        if !sizes.is_empty() {
            b.recv().unwrap();
        }
        let stats = fabric.stats();
        prop_assert_eq!(stats.total_bytes, total);
        prop_assert_eq!(stats.total_msgs, sizes.len() as u64);
    }
}
