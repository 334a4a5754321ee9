//! PML-level tests: matching, ordering, requests, replay, capture/restore.

use std::sync::Arc;
use std::time::Duration;

use cr_core::Tracer;
use netsim::{Fabric, LinkSpec, NodeId, Topology};
use ompi::crcp::{CoordCrcp, CrcpComponent, NoneCrcp};
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
    assert_eq!(&frame.payload[..], b"hello");
    assert_eq!(frame.src, 0);
    assert_eq!(frame.tag, 5);
    assert_eq!(pmls[0].with_state(|st| st.sent_counts[1]), 1);
    assert_eq!(pmls[1].with_state(|st| st.recv_counts[0]), 1);
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
    assert_eq!(&c.payload[..], b"from0tag1");
}

#[test]
fn context_isolation() {
    let pmls = mesh(2);
    pmls[0].send(7, 1, 1, b"ctx7").unwrap();
    pmls[0].send(9, 1, 1, b"ctx9").unwrap();
    let frame = pmls[1].recv(9, Some(0), Some(1)).unwrap();
    assert_eq!(&frame.payload[..], b"ctx9");
    let frame = pmls[1].recv(7, Some(0), Some(1)).unwrap();
    assert_eq!(&frame.payload[..], b"ctx7");
}

#[test]
fn per_pair_fifo_order() {
    let pmls = mesh(2);
    for i in 0..100u32 {
        pmls[0].send(0, 1, 9, &i.to_le_bytes()).unwrap();
    }
    for i in 0..100u32 {
        let frame = pmls[1].recv(0, Some(0), Some(9)).unwrap();
        assert_eq!(&frame.payload[..], i.to_le_bytes());
    }
}

#[test]
fn self_send() {
    let pmls = mesh(1);
    pmls[0].send(0, 0, 3, b"to myself").unwrap();
    let frame = pmls[0].recv(0, Some(0), Some(3)).unwrap();
    assert_eq!(&frame.payload[..], b"to myself");
}

#[test]
fn blocking_recv_across_threads() {
    let pmls = mesh(2);
    let receiver = Arc::clone(&pmls[1]);
    let t = std::thread::spawn(move || receiver.recv(0, Some(0), Some(1)).unwrap());
    std::thread::sleep(Duration::from_millis(20));
    pmls[0].send(0, 1, 1, b"late").unwrap();
    assert_eq!(&t.join().unwrap().payload[..], b"late");
}

/// A receive parked on a silent wire still reaches its safe point when a
/// checkpoint is requested (the gate's waker ends the wait), stays parked
/// through the checkpoint, and then receives as before.
#[test]
fn a_receive_parked_on_a_silent_wire_parks_at_the_gate_and_resumes() {
    let fabric = Fabric::new(Topology::uniform(1, LinkSpec::gigabit_ethernet()));
    let (ep0, ep1) = (fabric.register(NodeId(0)), fabric.register(NodeId(0)));
    let ids = vec![ep0.id(), ep1.id()];
    let gate = Arc::new(SafePointGate::new());
    let sender = PmlShared::new(
        0,
        2,
        ep0,
        ids.clone(),
        Arc::new(SafePointGate::new()),
        Tracer::new(),
    );
    let receiver = PmlShared::new(1, 2, ep1, ids, Arc::clone(&gate), Tracer::new());
    let t = std::thread::spawn(move || receiver.recv(0, Some(0), Some(1)).unwrap());
    // Give the receive time to park on the wire (a request that lands
    // earlier is seen at the gate without any wake).
    std::thread::sleep(Duration::from_millis(20));
    gate.request_pause().unwrap();
    gate.wait_until_parked(Duration::from_secs(10)).unwrap();
    sender.send(0, 1, 1, b"after the checkpoint").unwrap();
    gate.resume();
    assert_eq!(&t.join().unwrap().payload[..], b"after the checkpoint");
    assert_eq!(gate.generations(), 1);
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
    assert_eq!(&frame.payload[..], b"async");
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
    assert_eq!(&posted.payload[..], b"first");
    assert_eq!(&blocking.payload[..], b"second");
}

/// A received frame is a view of the delivered wire buffer, and the op
/// log's record of the receive shares it instead of copying it.
#[test]
fn recv_record_shares_the_returned_payload() {
    use ompi::pml::OpRecord;
    let pmls = mesh(2);
    for size in [64, 1 << 20] {
        pmls[0].send(0, 1, 1, &vec![5u8; size]).unwrap();
        let frame = pmls[1].recv(0, Some(0), Some(1)).unwrap();
        assert_eq!(frame.payload.len(), size);
        let recorded = pmls[1].with_state(|st| match st.step_log.last() {
            Some(OpRecord::Recv { frame, .. }) => frame.payload.as_ptr(),
            other => panic!("expected a Recv record, got {other:?}"),
        });
        assert_eq!(frame.payload.as_ptr(), recorded, "{size} B");
        pmls[1].begin_step();
    }
}

/// Once the receiver's step boundary drops the last view of a large
/// frame, the sender's next large frame is encoded into the same buffer.
#[test]
fn large_wire_buffers_are_recycled_after_the_receiver_lets_go() {
    let pmls = mesh(2);
    let payload = vec![0x3Cu8; 1 << 20];
    let mut seen = Vec::new();
    for _ in 0..4 {
        pmls[0].send(0, 1, 1, &payload).unwrap();
        let frame = pmls[1].recv(0, Some(0), Some(1)).unwrap();
        assert_eq!(frame.payload, payload);
        seen.push(frame.payload.as_ptr());
        drop(frame);
        pmls[1].begin_step();
        pmls[0].begin_step();
    }
    assert!(seen.iter().all(|&at| at == seen[0]), "{seen:?}");
}

/// The two payload-carrying types of the "pml" image section encode to
/// their payload plus a small skeleton, and so does the section.
#[test]
fn pml_section_carries_payloads_as_raw_runs() {
    use ompi::frame::AppFrame;
    use ompi::crcp::msglog::LoggedSend;
    let payload: Vec<u8> = (0..=255u8).cycle().take(300_000).collect();
    let (tag, seq) = (9, u64::MAX);
    let frame = AppFrame { src: 0, ctx: 0, tag, seq, payload: payload.clone().into() };
    let logged = LoggedSend { dst: 1, ctx: 0, tag, seq, payload: payload.clone().into() };
    let frame_len = codec::to_bytes(&frame).len();
    let logged_len = codec::to_bytes(&logged).len();
    assert!(frame_len <= payload.len() + 64, "AppFrame: {frame_len}");
    assert!(logged_len <= payload.len() + 64, "LoggedSend: {logged_len}");
    assert_eq!(codec::from_bytes::<AppFrame>(&codec::to_bytes(&frame)).unwrap(), frame);

    let pmls = mesh(2);
    let empty = pmls[1].capture().unwrap().len();
    pmls[1].with_state(|st| {
        st.unmatched.push_back(frame);
        st.msg_log.record(logged, u64::MAX);
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

/// The "pml" sections of a sender with a message log and of a receiver
/// with an unexpected frame, a completed receive request and a recorded
/// receive, as the build before payloads shared the wire buffer wrote
/// them for the same operations.
#[rustfmt::skip]
const PARENT_SENDER_SECTION: &[u8] = &[
    0x10, 0x0b, 0x09, 0x75, 0x6e, 0x6d, 0x61, 0x74, 0x63, 0x68, 0x65, 0x64, 0x0e,
    0x00, 0x06, 0x70, 0x6f, 0x73, 0x74, 0x65, 0x64, 0x0e, 0x00, 0x09, 0x63, 0x6f,
    0x6d, 0x70, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x0f, 0x01, 0x04, 0x00, 0x0c, 0x0b,
    0x73, 0x65, 0x6e, 0x74, 0x5f, 0x63, 0x6f, 0x75, 0x6e, 0x74, 0x73, 0x0e, 0x02,
    0x04, 0x00, 0x04, 0x03, 0x0b, 0x72, 0x65, 0x63, 0x76, 0x5f, 0x63, 0x6f, 0x75,
    0x6e, 0x74, 0x73, 0x0e, 0x02, 0x04, 0x00, 0x04, 0x00, 0x08, 0x6e, 0x65, 0x78,
    0x74, 0x5f, 0x72, 0x65, 0x71, 0x04, 0x01, 0x08, 0x73, 0x74, 0x65, 0x70, 0x5f,
    0x6c, 0x6f, 0x67, 0x0e, 0x03, 0x14, 0x04, 0x53, 0x65, 0x6e, 0x64, 0x04, 0x03,
    0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03, 0x74,
    0x61, 0x67, 0x04, 0x03, 0x03, 0x6c, 0x65, 0x6e, 0x04, 0x03, 0x14, 0x04, 0x53,
    0x65, 0x6e, 0x64, 0x04, 0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74,
    0x78, 0x04, 0x00, 0x03, 0x74, 0x61, 0x67, 0x04, 0x04, 0x03, 0x6c, 0x65, 0x6e,
    0x04, 0x03, 0x14, 0x05, 0x49, 0x73, 0x65, 0x6e, 0x64, 0x05, 0x03, 0x72, 0x65,
    0x71, 0x04, 0x00, 0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78,
    0x04, 0x00, 0x03, 0x74, 0x61, 0x67, 0x04, 0x05, 0x03, 0x6c, 0x65, 0x6e, 0x04,
    0x05, 0x07, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67, 0x0e, 0x03, 0x10, 0x05,
    0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03,
    0x74, 0x61, 0x67, 0x04, 0x03, 0x03, 0x73, 0x65, 0x71, 0x04, 0x00, 0x07, 0x70,
    0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x03, 0x6f, 0x6e, 0x65, 0x10, 0x05,
    0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03,
    0x74, 0x61, 0x67, 0x04, 0x04, 0x03, 0x73, 0x65, 0x71, 0x04, 0x01, 0x07, 0x70,
    0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x03, 0x74, 0x77, 0x6f, 0x10, 0x05,
    0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03,
    0x74, 0x61, 0x67, 0x04, 0x05, 0x03, 0x73, 0x65, 0x71, 0x04, 0x02, 0x07, 0x70,
    0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x05, 0x74, 0x68, 0x72, 0x65, 0x65,
    0x0d, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67, 0x5f, 0x62, 0x79, 0x74, 0x65,
    0x73, 0x04, 0x0b, 0x10, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67, 0x5f, 0x6f,
    0x76, 0x65, 0x72, 0x66, 0x6c, 0x6f, 0x77, 0x01, 0x0a, 0x63, 0x72, 0x63, 0x70,
    0x5f, 0x69, 0x6e, 0x62, 0x6f, 0x78, 0x0e, 0x00,
];
#[rustfmt::skip]
const PARENT_RECEIVER_SECTION: &[u8] = &[
    0x10, 0x0b, 0x09, 0x75, 0x6e, 0x6d, 0x61, 0x74, 0x63, 0x68, 0x65, 0x64, 0x0e,
    0x01, 0x10, 0x05, 0x03, 0x73, 0x72, 0x63, 0x04, 0x00, 0x03, 0x63, 0x74, 0x78,
    0x04, 0x00, 0x03, 0x74, 0x61, 0x67, 0x04, 0x04, 0x03, 0x73, 0x65, 0x71, 0x04,
    0x01, 0x07, 0x70, 0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x03, 0x74, 0x77,
    0x6f, 0x06, 0x70, 0x6f, 0x73, 0x74, 0x65, 0x64, 0x0e, 0x00, 0x09, 0x63, 0x6f,
    0x6d, 0x70, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x0f, 0x01, 0x04, 0x00, 0x0d, 0x10,
    0x05, 0x03, 0x73, 0x72, 0x63, 0x04, 0x00, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00,
    0x03, 0x74, 0x61, 0x67, 0x04, 0x05, 0x03, 0x73, 0x65, 0x71, 0x04, 0x02, 0x07,
    0x70, 0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x05, 0x74, 0x68, 0x72, 0x65,
    0x65, 0x0b, 0x73, 0x65, 0x6e, 0x74, 0x5f, 0x63, 0x6f, 0x75, 0x6e, 0x74, 0x73,
    0x0e, 0x02, 0x04, 0x00, 0x04, 0x00, 0x0b, 0x72, 0x65, 0x63, 0x76, 0x5f, 0x63,
    0x6f, 0x75, 0x6e, 0x74, 0x73, 0x0e, 0x02, 0x04, 0x03, 0x04, 0x00, 0x08, 0x6e,
    0x65, 0x78, 0x74, 0x5f, 0x72, 0x65, 0x71, 0x04, 0x01, 0x08, 0x73, 0x74, 0x65,
    0x70, 0x5f, 0x6c, 0x6f, 0x67, 0x0e, 0x02, 0x14, 0x05, 0x49, 0x72, 0x65, 0x63,
    0x76, 0x04, 0x03, 0x72, 0x65, 0x71, 0x04, 0x00, 0x03, 0x63, 0x74, 0x78, 0x04,
    0x00, 0x03, 0x73, 0x72, 0x63, 0x0d, 0x04, 0x00, 0x03, 0x74, 0x61, 0x67, 0x0d,
    0x04, 0x05, 0x14, 0x04, 0x52, 0x65, 0x63, 0x76, 0x04, 0x03, 0x63, 0x74, 0x78,
    0x04, 0x00, 0x03, 0x73, 0x72, 0x63, 0x0d, 0x04, 0x00, 0x03, 0x74, 0x61, 0x67,
    0x0d, 0x04, 0x03, 0x05, 0x66, 0x72, 0x61, 0x6d, 0x65, 0x10, 0x05, 0x03, 0x73,
    0x72, 0x63, 0x04, 0x00, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03, 0x74, 0x61,
    0x67, 0x04, 0x03, 0x03, 0x73, 0x65, 0x71, 0x04, 0x00, 0x07, 0x70, 0x61, 0x79,
    0x6c, 0x6f, 0x61, 0x64, 0x0b, 0x03, 0x6f, 0x6e, 0x65, 0x07, 0x6d, 0x73, 0x67,
    0x5f, 0x6c, 0x6f, 0x67, 0x0e, 0x00, 0x0d, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f,
    0x67, 0x5f, 0x62, 0x79, 0x74, 0x65, 0x73, 0x04, 0x00, 0x10, 0x6d, 0x73, 0x67,
    0x5f, 0x6c, 0x6f, 0x67, 0x5f, 0x6f, 0x76, 0x65, 0x72, 0x66, 0x6c, 0x6f, 0x77,
    0x01, 0x0a, 0x63, 0x72, 0x63, 0x70, 0x5f, 0x69, 0x6e, 0x62, 0x6f, 0x78, 0x0e,
    0x00,
];

#[test]
fn pml_sections_of_shared_payloads_keep_their_parent_bytes() {
    let pmls = mesh(2);
    let params = mca::McaParams::new();
    params.set("crcp_msg_log_enabled", "true");
    pmls[0].set_crcp(Some(Arc::new(CoordCrcp::from_params(Tracer::new(), &params))));
    pmls[0].send(0, 1, 3, b"one").unwrap();
    pmls[0].send(0, 1, 4, b"two").unwrap();
    let posted = pmls[1].irecv(0, Some(0), Some(5)).unwrap();
    pmls[0].isend(0, 1, 5, b"three").unwrap();
    assert_eq!(&pmls[1].recv(0, Some(0), Some(3)).unwrap().payload[..], b"one");
    for (pml, parent) in pmls.iter().zip([PARENT_SENDER_SECTION, PARENT_RECEIVER_SECTION]) {
        assert_eq!(pml.capture().unwrap(), parent);
        let restored = mesh(2);
        restored[pml.me() as usize].restore(parent).unwrap();
        assert_eq!(restored[pml.me() as usize].capture().unwrap(), parent);
    }
    let restored = mesh(2);
    restored[1].restore(PARENT_RECEIVER_SECTION).unwrap();
    assert_eq!(&restored[1].wait(posted).unwrap().unwrap().payload[..], b"three");
    assert_eq!(&restored[1].recv(0, Some(0), Some(4)).unwrap().payload[..], b"two");
}

#[test]
fn capture_restore_preserves_unmatched_and_counts() {
    let pmls = mesh(2);
    pmls[0].send(0, 1, 1, b"one").unwrap();
    pmls[0].send(0, 1, 2, b"two").unwrap();
    // Receive only the tag-2 message; tag-1 stays unmatched after a pump.
    let f = pmls[1].recv(0, Some(0), Some(2)).unwrap();
    assert_eq!(&f.payload[..], b"two");

    let section = pmls[1].capture().unwrap();

    // "Restart": fresh mesh, restore rank 1's state.
    let pmls2 = mesh(2);
    pmls2[1].restore(&section).unwrap();
    assert_eq!(pmls2[1].with_state(|st| st.recv_counts[0]), 2);
    // The unmatched tag-1 message survives into the new incarnation.
    let f = pmls2[1].recv(0, Some(0), Some(1)).unwrap();
    assert_eq!(&f.payload[..], b"one");
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
    assert_eq!(&echo.payload[..], b"ping");

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
    assert_eq!(&echo.payload[..], b"ping");
    assert!(!pmls2[0].is_replaying());
    // Re-execute rank 1's step.
    let ping = pmls2[1].recv(0, Some(0), Some(1)).unwrap();
    assert_eq!(&ping.payload[..], b"ping");
    pmls2[1].send(0, 0, 2, &ping.payload).unwrap();
    // No duplicate traffic: counters unchanged from the captured values.
    assert_eq!(pmls2[0].with_state(|st| st.sent_counts[1]), 1);
    assert_eq!(pmls2[1].with_state(|st| st.sent_counts[0]), 1);
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
    assert_eq!(pmls[1].with_state(|st| st.recv_counts[0]), 2);
    assert_eq!(pmls[1].with_state(|st| st.recv_counts[2]), 1);
    assert_eq!(pmls[2].with_state(|st| st.recv_counts[1]), 1);
    // And the drained messages are consumable.
    assert_eq!(&pmls[1].recv(0, Some(0), Some(1)).unwrap().payload[..], b"a");
    assert_eq!(&pmls[1].recv(0, Some(0), Some(1)).unwrap().payload[..], b"b");
    assert_eq!(&pmls[1].recv(0, Some(2), Some(1)).unwrap().payload[..], b"c");
    assert_eq!(&pmls[2].recv(0, Some(1), Some(1)).unwrap().payload[..], b"d");
}

/// `capture()` of a rank-0 `pml` section as the build that kept a second,
/// logger-only log beside `msg_log` wrote it: one unmatched frame, one
/// entry in each log, counts `sent [0, 2]` / `recv [1, 0]`.
const PARENT_PML: &[u8] = &[
    0x10, 0x0c, 0x09, 0x75, 0x6e, 0x6d, 0x61, 0x74, 0x63, 0x68, 0x65, 0x64, 0x0e, 0x01, 0x10, 0x05,
    0x03, 0x73, 0x72, 0x63, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03, 0x74, 0x61, 0x67,
    0x04, 0x07, 0x03, 0x73, 0x65, 0x71, 0x04, 0x00, 0x07, 0x70, 0x61, 0x79, 0x6c, 0x6f, 0x61, 0x64,
    0x0b, 0x02, 0x68, 0x69, 0x06, 0x70, 0x6f, 0x73, 0x74, 0x65, 0x64, 0x0e, 0x00, 0x09, 0x63, 0x6f,
    0x6d, 0x70, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x0f, 0x00, 0x0b, 0x73, 0x65, 0x6e, 0x74, 0x5f, 0x63,
    0x6f, 0x75, 0x6e, 0x74, 0x73, 0x0e, 0x02, 0x04, 0x00, 0x04, 0x02, 0x0b, 0x72, 0x65, 0x63, 0x76,
    0x5f, 0x63, 0x6f, 0x75, 0x6e, 0x74, 0x73, 0x0e, 0x02, 0x04, 0x01, 0x04, 0x00, 0x08, 0x6e, 0x65,
    0x78, 0x74, 0x5f, 0x72, 0x65, 0x71, 0x04, 0x03, 0x08, 0x73, 0x74, 0x65, 0x70, 0x5f, 0x6c, 0x6f,
    0x67, 0x0e, 0x00, 0x0a, 0x73, 0x65, 0x6e, 0x64, 0x65, 0x72, 0x5f, 0x6c, 0x6f, 0x67, 0x0e, 0x01,
    0x10, 0x05, 0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03, 0x74,
    0x61, 0x67, 0x04, 0x07, 0x03, 0x73, 0x65, 0x71, 0x04, 0x00, 0x07, 0x70, 0x61, 0x79, 0x6c, 0x6f,
    0x61, 0x64, 0x0b, 0x03, 0x6f, 0x6c, 0x64, 0x07, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67, 0x0e,
    0x01, 0x10, 0x05, 0x03, 0x64, 0x73, 0x74, 0x04, 0x01, 0x03, 0x63, 0x74, 0x78, 0x04, 0x00, 0x03,
    0x74, 0x61, 0x67, 0x04, 0x07, 0x03, 0x73, 0x65, 0x71, 0x04, 0x01, 0x07, 0x70, 0x61, 0x79, 0x6c,
    0x6f, 0x61, 0x64, 0x0b, 0x03, 0x6c, 0x6f, 0x67, 0x0d, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67,
    0x5f, 0x62, 0x79, 0x74, 0x65, 0x73, 0x04, 0x03, 0x10, 0x6d, 0x73, 0x67, 0x5f, 0x6c, 0x6f, 0x67,
    0x5f, 0x6f, 0x76, 0x65, 0x72, 0x66, 0x6c, 0x6f, 0x77, 0x01, 0x0a, 0x63, 0x72, 0x63, 0x70, 0x5f,
    0x69, 0x6e, 0x62, 0x6f, 0x78, 0x0e, 0x00,
];

#[test]
fn pml_section_from_before_the_single_log_still_restores() {
    let pmls = mesh(2);
    pmls[0].restore(PARENT_PML).unwrap();
    let restored = pmls[0].with_state(|st| {
        assert_eq!(st.sent_counts, vec![0, 2]);
        assert_eq!(st.recv_counts, vec![1, 0]);
        assert_eq!(st.next_req, 3);
        assert_eq!(st.unmatched.len(), 1);
        assert_eq!((st.unmatched[0].src, st.unmatched[0].tag), (1, 7));
        assert_eq!(&st.unmatched[0].payload[..], b"hi");
        let log = st.msg_log.entries();
        assert_eq!(log.len(), 1, "only msg_log's entry is kept");
        assert_eq!((log[0].dst, log[0].seq), (1, 1));
        assert_eq!(&log[0].payload[..], b"log");
        assert_eq!(st.msg_log.bytes(), 3);
        st.msg_log.clone()
    });
    // What this build captures from it restores to the same log.
    let again = mesh(2);
    again[0].restore(&pmls[0].capture().unwrap()).unwrap();
    assert_eq!(again[0].with_state(|st| st.msg_log.clone()), restored);
}

#[test]
fn none_component_is_pure_passthrough() {
    let pmls = mesh(2);
    pmls[0].set_crcp(Some(Arc::new(NoneCrcp)));
    pmls[1].set_crcp(Some(Arc::new(NoneCrcp)));
    pmls[0].send(0, 1, 1, b"x").unwrap();
    assert_eq!(&pmls[1].recv(0, Some(0), Some(1)).unwrap().payload[..], b"x");
    // No logging tax.
    assert_eq!(pmls[0].with_state(|st| st.msg_log.entries().len()), 0);
    pmls[0].crcp().unwrap().coordinate(&pmls[0]).unwrap();
}

#[test]
fn invalid_rank_rejected() {
    let pmls = mesh(2);
    assert!(pmls[0].send(0, 5, 1, b"x").is_err());
    assert!(pmls[0].recv(0, Some(5), None).is_err());
}
