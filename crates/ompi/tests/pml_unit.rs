//! PML-level tests: matching, ordering, requests, replay, capture/restore.

use std::sync::Arc;
use std::time::Duration;

use cr_core::Tracer;
use netsim::{Fabric, LinkSpec, NodeId, Topology};
use ompi::crcp::{CoordCrcp, CrcpComponent, LoggerCrcp, NoneCrcp};
use ompi::pml::PmlShared;
use opal::SafePointGate;

/// Build `n` PMLs on one fabric (all on node 0), fully meshed.
fn mesh(n: u32) -> Vec<Arc<PmlShared>> {
    let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
    let endpoints: Vec<_> = (0..n).map(|_| fabric.register(NodeId(0))).collect();
    let ids: Vec<_> = endpoints.iter().map(|e| e.id()).collect();
    endpoints
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            PmlShared::new(
                i as u32,
                n,
                ep,
                ids.clone(),
                Arc::new(SafePointGate::new()),
                Tracer::new(),
            )
        })
        .collect()
}

#[test]
fn send_recv_basic() {
    let pmls = mesh(2);
    pmls[0].send(0, 1, 5, b"hello").unwrap();
    let frame = pmls[1].recv(0, Some(0), Some(5)).unwrap();
    assert_eq!(frame.payload, b"hello");
    assert_eq!(frame.src, 0);
    assert_eq!(frame.tag, 5);
    assert_eq!(pmls[0].sent_count(1), 1);
    assert_eq!(pmls[1].recv_count(0), 1);
}

#[test]
fn tag_and_source_filtering() {
    let pmls = mesh(3);
    pmls[0].send(0, 2, 1, b"from0tag1").unwrap();
    pmls[1].send(0, 2, 2, b"from1tag2").unwrap();
    pmls[0].send(0, 2, 2, b"from0tag2").unwrap();
    // Tag-filtered any-source: first arrival with tag 2 wins; both
    // tag-2 messages are retrievable.
    let a = pmls[2].recv(0, None, Some(2)).unwrap();
    let b = pmls[2].recv(0, None, Some(2)).unwrap();
    let mut got = vec![a.payload, b.payload];
    got.sort();
    assert_eq!(got, vec![b"from0tag2".to_vec(), b"from1tag2".to_vec()]);
    // Source-filtered any-tag.
    let c = pmls[2].recv(0, Some(0), None).unwrap();
    assert_eq!(c.payload, b"from0tag1");
}

#[test]
fn context_isolation() {
    let pmls = mesh(2);
    pmls[0].send(7, 1, 1, b"ctx7").unwrap();
    pmls[0].send(9, 1, 1, b"ctx9").unwrap();
    let frame = pmls[1].recv(9, Some(0), Some(1)).unwrap();
    assert_eq!(frame.payload, b"ctx9");
    let frame = pmls[1].recv(7, Some(0), Some(1)).unwrap();
    assert_eq!(frame.payload, b"ctx7");
}

#[test]
fn per_pair_fifo_order() {
    let pmls = mesh(2);
    for i in 0..100u32 {
        pmls[0].send(0, 1, 9, &i.to_le_bytes()).unwrap();
    }
    for i in 0..100u32 {
        let frame = pmls[1].recv(0, Some(0), Some(9)).unwrap();
        assert_eq!(frame.payload, i.to_le_bytes());
    }
}

#[test]
fn self_send() {
    let pmls = mesh(1);
    pmls[0].send(0, 0, 3, b"to myself").unwrap();
    let frame = pmls[0].recv(0, Some(0), Some(3)).unwrap();
    assert_eq!(frame.payload, b"to myself");
}

#[test]
fn blocking_recv_across_threads() {
    let pmls = mesh(2);
    let receiver = Arc::clone(&pmls[1]);
    let t = std::thread::spawn(move || receiver.recv(0, Some(0), Some(1)).unwrap());
    std::thread::sleep(Duration::from_millis(20));
    pmls[0].send(0, 1, 1, b"late").unwrap();
    assert_eq!(t.join().unwrap().payload, b"late");
}

#[test]
fn nonblocking_requests() {
    let pmls = mesh(2);
    // irecv posted before the message exists.
    let r = pmls[1].irecv(0, Some(0), Some(4)).unwrap();
    assert!(pmls[1].test(r).unwrap().is_none());
    let s = pmls[0].isend(0, 1, 4, b"async").unwrap();
    assert_eq!(pmls[0].wait(s).unwrap(), None); // send request
    let frame = pmls[1].wait(r).unwrap().expect("recv request has payload");
    assert_eq!(frame.payload, b"async");
    // Waiting on an unknown request errors.
    assert!(pmls[1].wait(9999).is_err());
}

#[test]
fn posted_receives_match_before_unexpected_queue() {
    let pmls = mesh(2);
    let r = pmls[1].irecv(0, None, Some(1)).unwrap();
    pmls[0].send(0, 1, 1, b"first").unwrap();
    pmls[0].send(0, 1, 1, b"second").unwrap();
    // The posted request takes the first message; a blocking recv gets the
    // second.
    let blocking = pmls[1].recv(0, Some(0), Some(1)).unwrap();
    let posted = pmls[1].wait(r).unwrap().unwrap();
    assert_eq!(posted.payload, b"first");
    assert_eq!(blocking.payload, b"second");
}

/// The two payload-carrying types of the "pml" image section encode to
/// their payload plus a small skeleton, and so does the section.
#[test]
fn pml_section_carries_payloads_as_raw_runs() {
    use ompi::frame::AppFrame;
    use ompi::pml::LoggedSend;
    let payload: Vec<u8> = (0..=255u8).cycle().take(300_000).collect();
    let (tag, seq) = (9, u64::MAX);
    let frame = AppFrame { src: 0, ctx: 0, tag, seq, payload: payload.clone().into() };
    let logged = LoggedSend { dst: 1, ctx: 0, tag, seq, payload: payload.clone().into() };
    let frame_len = codec::to_bytes(&frame).unwrap().len();
    let logged_len = codec::to_bytes(&logged).unwrap().len();
    assert!(frame_len <= payload.len() + 64, "AppFrame: {frame_len}");
    assert!(logged_len <= payload.len() + 64, "LoggedSend: {logged_len}");
    assert_eq!(codec::from_bytes::<AppFrame>(&codec::to_bytes(&frame).unwrap()).unwrap(), frame);

    let pmls = mesh(2);
    let empty = pmls[1].capture().unwrap().len();
    pmls[1].with_state(|st| {
        st.unmatched.push_back(frame);
        st.msg_log.push(logged);
    });
    let section = pmls[1].capture().unwrap();
    assert!(
        section.len() <= empty + 2 * (payload.len() + 64),
        "pml section: {} B for 2 x {} B of payload",
        section.len(),
        payload.len()
    );
    let restored = mesh(2);
    restored[1].restore(&section).unwrap();
    assert_eq!(restored[1].recv(0, Some(0), Some(9)).unwrap().payload, payload);
}

#[test]
fn capture_restore_preserves_unmatched_and_counts() {
    let pmls = mesh(2);
    pmls[0].send(0, 1, 1, b"one").unwrap();
    pmls[0].send(0, 1, 2, b"two").unwrap();
    // Receive only the tag-2 message; tag-1 stays unmatched after a pump.
    let f = pmls[1].recv(0, Some(0), Some(2)).unwrap();
    assert_eq!(f.payload, b"two");

    let section = pmls[1].capture().unwrap();

    // "Restart": fresh mesh, restore rank 1's state.
    let pmls2 = mesh(2);
    pmls2[1].restore(&section).unwrap();
    assert_eq!(pmls2[1].recv_count(0), 2);
    // The unmatched tag-1 message survives into the new incarnation.
    let f = pmls2[1].recv(0, Some(0), Some(1)).unwrap();
    assert_eq!(f.payload, b"one");
}

#[test]
fn restore_rejects_wrong_world_size() {
    let pmls = mesh(2);
    let section = pmls[0].capture().unwrap();
    let other = mesh(3);
    assert!(other[0].restore(&section).is_err());
}

#[test]
fn step_replay_skips_sends_and_replays_recvs() {
    // Rank 0 executes a partial step (send + recv + send), then we capture
    // both sides and re-execute the step against restored state: the
    // replayed operations must return identical results without moving any
    // new bytes.
    let pmls = mesh(2);
    pmls[0].begin_step();
    pmls[1].begin_step();
    pmls[0].send(0, 1, 1, b"ping").unwrap();
    let echo_req = pmls[0].irecv(0, Some(1), Some(2)).unwrap();
    let ping = pmls[1].recv(0, Some(0), Some(1)).unwrap();
    pmls[1].send(0, 0, 2, &ping.payload).unwrap();
    let echo = pmls[0].wait(echo_req).unwrap().unwrap();
    assert_eq!(echo.payload, b"ping");

    // Checkpoint both mid-step.
    let s0 = pmls[0].capture().unwrap();
    let s1 = pmls[1].capture().unwrap();

    // Restart.
    let pmls2 = mesh(2);
    pmls2[0].restore(&s0).unwrap();
    pmls2[1].restore(&s1).unwrap();
    pmls2[0].arm_replay();
    pmls2[1].arm_replay();
    assert!(pmls2[0].is_replaying());

    // Re-execute rank 0's step: all three ops replay.
    pmls2[0].send(0, 1, 1, b"ping").unwrap();
    let echo_req = pmls2[0].irecv(0, Some(1), Some(2)).unwrap();
    let echo = pmls2[0].wait(echo_req).unwrap().unwrap();
    assert_eq!(echo.payload, b"ping");
    assert!(!pmls2[0].is_replaying());
    // Re-execute rank 1's step.
    let ping = pmls2[1].recv(0, Some(0), Some(1)).unwrap();
    assert_eq!(ping.payload, b"ping");
    pmls2[1].send(0, 0, 2, &ping.payload).unwrap();
    // No duplicate traffic: counters unchanged from the captured values.
    assert_eq!(pmls2[0].sent_count(1), 1);
    assert_eq!(pmls2[1].sent_count(0), 1);
}

#[test]
fn replay_divergence_detected() {
    let pmls = mesh(2);
    pmls[0].begin_step();
    pmls[0].send(0, 1, 1, b"original").unwrap();
    let section = pmls[0].capture().unwrap();

    let pmls2 = mesh(2);
    pmls2[0].restore(&section).unwrap();
    pmls2[0].arm_replay();
    // Different tag: the app is non-deterministic — must be caught.
    let err = pmls2[0].send(0, 1, 99, b"original").unwrap_err();
    assert!(err.to_string().contains("deterministic"));
}

#[test]
fn coord_bookmark_exchange_drains_in_flight() {
    let pmls = mesh(3);
    let coord = CoordCrcp::new(Tracer::new());
    // In-flight traffic: nothing received yet.
    pmls[0].send(0, 1, 1, b"a").unwrap();
    pmls[0].send(0, 1, 1, b"b").unwrap();
    pmls[2].send(0, 1, 1, b"c").unwrap();
    pmls[1].send(0, 2, 1, b"d").unwrap();

    // All ranks coordinate concurrently (as the notification threads do).
    let handles: Vec<_> = pmls
        .iter()
        .map(|pml| {
            let pml = Arc::clone(pml);
            std::thread::spawn(move || CoordCrcp::new(Tracer::new()).coordinate(&pml))
        })
        .collect();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let _ = coord;

    // Channels quiesced: every sent message is in its receiver's PML.
    assert_eq!(pmls[1].recv_count(0), 2);
    assert_eq!(pmls[1].recv_count(2), 1);
    assert_eq!(pmls[2].recv_count(1), 1);
    // And the drained messages are consumable.
    assert_eq!(pmls[1].recv(0, Some(0), Some(1)).unwrap().payload, b"a");
    assert_eq!(pmls[1].recv(0, Some(0), Some(1)).unwrap().payload, b"b");
    assert_eq!(pmls[1].recv(0, Some(2), Some(1)).unwrap().payload, b"c");
    assert_eq!(pmls[2].recv(0, Some(1), Some(1)).unwrap().payload, b"d");
}

#[test]
fn logger_records_prunes_and_resends() {
    let pmls = mesh(2);
    let logger: Arc<dyn CrcpComponent> = Arc::new(LoggerCrcp::new(Tracer::new()));
    pmls[0].set_crcp(Some(Arc::clone(&logger)));
    pmls[1].set_crcp(Some(Arc::clone(&logger)));

    pmls[0].send(0, 1, 1, b"m0").unwrap();
    pmls[0].send(0, 1, 1, b"m1").unwrap();
    pmls[0].send(0, 1, 1, b"m2").unwrap();
    // Receiver consumes only the first; m1/m2 stay in flight or unmatched.
    assert_eq!(pmls[1].recv(0, Some(0), Some(1)).unwrap().payload, b"m0");
    assert_eq!(pmls[0].with_state(|st| st.sender_log.len()), 3);

    // Checkpoint-time GC: both coordinate; receiver has counted m1/m2 into
    // its PML by then (they were already delivered by the fabric), so the
    // whole log can be pruned... but only what the receiver acknowledges.
    let a = Arc::clone(&pmls[0]);
    let b = Arc::clone(&pmls[1]);
    let ta = std::thread::spawn(move || a.crcp().unwrap().coordinate(&a));
    let tb = std::thread::spawn(move || b.crcp().unwrap().coordinate(&b));
    ta.join().unwrap().unwrap();
    tb.join().unwrap().unwrap();
    let remaining = pmls[0].with_state(|st| st.sender_log.len());
    assert!(remaining <= 3);

    // Simulate restart where the receiver never got m1/m2: fresh mesh,
    // sender keeps its log, receiver restored with recv_count == 1.
    let pmls2 = mesh(2);
    pmls2[0].set_crcp(Some(Arc::clone(&logger)));
    pmls2[1].set_crcp(Some(Arc::clone(&logger)));
    pmls2[0].with_state(|st| {
        st.sent_counts[1] = 3;
        st.sender_log = vec![
            ompi::pml::LoggedSend { dst: 1, ctx: 0, tag: 1, seq: 0, payload: b"m0".to_vec().into() },
            ompi::pml::LoggedSend { dst: 1, ctx: 0, tag: 1, seq: 1, payload: b"m1".to_vec().into() },
            ompi::pml::LoggedSend { dst: 1, ctx: 0, tag: 1, seq: 2, payload: b"m2".to_vec().into() },
        ];
    });
    pmls2[1].with_state(|st| st.recv_counts[0] = 1);

    let a = Arc::clone(&pmls2[0]);
    let b = Arc::clone(&pmls2[1]);
    let ta = std::thread::spawn(move || {
        a.crcp().unwrap().resume(&a, cr_core::FtEventState::Restart)
    });
    let tb = std::thread::spawn(move || {
        b.crcp().unwrap().resume(&b, cr_core::FtEventState::Restart)
    });
    ta.join().unwrap().unwrap();
    tb.join().unwrap().unwrap();

    // m1 and m2 arrive exactly once (m0's resend is deduplicated by seq).
    assert_eq!(pmls2[1].recv(0, Some(0), Some(1)).unwrap().payload, b"m1");
    assert_eq!(pmls2[1].recv(0, Some(0), Some(1)).unwrap().payload, b"m2");
    assert_eq!(pmls2[1].recv_count(0), 3);
}

#[test]
fn none_component_is_pure_passthrough() {
    let pmls = mesh(2);
    pmls[0].set_crcp(Some(Arc::new(NoneCrcp)));
    pmls[1].set_crcp(Some(Arc::new(NoneCrcp)));
    pmls[0].send(0, 1, 1, b"x").unwrap();
    assert_eq!(pmls[1].recv(0, Some(0), Some(1)).unwrap().payload, b"x");
    // No logging tax.
    assert_eq!(pmls[0].with_state(|st| st.sender_log.len()), 0);
    pmls[0].crcp().unwrap().coordinate(&pmls[0]).unwrap();
}

#[test]
fn invalid_rank_rejected() {
    let pmls = mesh(2);
    assert!(pmls[0].send(0, 5, 1, b"x").is_err());
    assert!(pmls[0].recv(0, Some(5), None).is_err());
}
