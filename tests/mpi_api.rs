//! API-surface tests through full jobs: communicator management,
//! non-blocking operations, wildcard receives, and typed payloads.

use std::sync::Arc;

use ompi::app::{MpiApp, StepOutcome};
use ompi::{mpirun, Mpi, MpiError, RunConfig};
use ompi_cr::test_runtime;

/// Splits the world into even/odd sub-communicators, reduces within each,
/// then exchanges the sub-results through a duplicated world.
struct CommApp;

#[derive(Debug, Clone)]
struct CommState {
    parity_sum: u32,
    world_total: u32,
    done: bool,
}
codec::wire_struct!(CommState { parity_sum, world_total, done });

impl MpiApp for CommApp {
    type State = CommState;

    fn init_state(&self, _mpi: &Mpi) -> Result<CommState, MpiError> {
        Ok(CommState {
            parity_sum: 0,
            world_total: 0,
            done: false,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut CommState) -> Result<StepOutcome, MpiError> {
        let world = mpi.world().clone();
        let me = world.rank();

        // Split by parity; order within a color by descending rank via key.
        let sub = mpi.comm_split(&world, me % 2, world.size() - me)?;
        assert_eq!(
            sub.size(),
            world.size() / 2 + (world.size() % 2) * (1 - me % 2)
        );
        // Within the sub-communicator, sum the world ranks.
        state.parity_sum = mpi.allreduce(&sub, me, |a, b| a + b)?;

        // Duplicate the world: traffic on the dup must not collide with
        // traffic on the original.
        let dup = mpi.comm_dup(&world)?;
        let on_dup = mpi.allreduce(&dup, state.parity_sum, |a, b| a + b)?;
        let on_world = mpi.allreduce(&world, 0u32, |a, b| a + b)?;
        assert_eq!(on_world, 0);
        state.world_total = on_dup;

        state.done = true;
        Ok(StepOutcome::Done)
    }
}

#[test]
fn comm_split_and_dup() {
    let rt = test_runtime("comm_mgmt", 2);
    let results = mpirun(&rt, Arc::new(CommApp), RunConfig::new(6))
        .unwrap()
        .wait()
        .unwrap();
    let even_sum = 2 + 4;
    let odd_sum = 1 + 3 + 5;
    for (r, (state, _)) in results.iter().enumerate() {
        let expected = if r % 2 == 0 { even_sum } else { odd_sum };
        assert_eq!(state.parity_sum, expected, "rank {r}");
        // Sum over the world of each rank's parity_sum:
        // evens contribute even_sum each (3x), odds odd_sum each (3x).
        assert_eq!(state.world_total, 3 * even_sum + 3 * odd_sum);
    }
    rt.shutdown();
}

/// Pipelined non-blocking exchange with wildcard receives and statuses.
struct NonBlockingApp;

#[derive(Debug, Clone)]
struct NbState {
    round: u32,
    from_sources: Vec<u32>,
}
codec::wire_struct!(NbState { round, from_sources });

impl MpiApp for NonBlockingApp {
    type State = NbState;

    fn init_state(&self, _mpi: &Mpi) -> Result<NbState, MpiError> {
        Ok(NbState {
            round: 0,
            from_sources: Vec::new(),
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut NbState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();

        // Everyone posts n-1 wildcard irecvs, then isends a tagged value
        // to every other rank, then drains with wait_recv. The tag is
        // scoped per round: with a shared tag, a wildcard recv in round k
        // could legally match a fast sender's round-k+1 frame (MPI only
        // orders messages per (sender, tag) pair).
        let tag = 77_000 + state.round;
        let reqs: Vec<_> = (0..n - 1)
            .map(|_| mpi.irecv(&comm, None, Some(tag)))
            .collect::<Result<_, _>>()?;
        let sends: Vec<_> = (0..n)
            .filter(|q| *q != me)
            .map(|q| mpi.isend(&comm, q, tag, &(me * 1000 + state.round)))
            .collect::<Result<_, _>>()?;
        let mut seen = Vec::new();
        for req in reqs {
            let (value, status): (u32, _) = mpi.wait_recv(req)?;
            assert_eq!(value, status.source * 1000 + state.round);
            assert_eq!(status.tag, tag);
            seen.push(status.source);
        }
        for s in sends {
            mpi.wait_send(s)?;
        }
        seen.sort_unstable();
        state.from_sources = seen;
        state.round += 1;
        Ok(if state.round >= 20 {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        })
    }
}

#[test]
fn nonblocking_wildcards_and_statuses() {
    let rt = test_runtime("nonblocking", 2);
    let results = mpirun(&rt, Arc::new(NonBlockingApp), RunConfig::new(4))
        .unwrap()
        .wait()
        .unwrap();
    for (r, (state, _)) in results.iter().enumerate() {
        let expected: Vec<u32> = (0..4u32).filter(|q| *q as usize != r).collect();
        assert_eq!(state.from_sources, expected, "rank {r}");
    }
    rt.shutdown();
}

/// Typed payloads: structs, enums, vectors move through send/recv intact.
struct TypedApp;

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Point,
    Circle { radius: f64 },
    Poly(Vec<(i32, i32)>),
}
codec::wire_enum!(Shape { Point, Circle { radius }, Poly(v) });

#[derive(Debug, Clone)]
struct TypedState {
    ok: bool,
}
codec::wire_struct!(TypedState { ok });

impl MpiApp for TypedApp {
    type State = TypedState;

    fn init_state(&self, _mpi: &Mpi) -> Result<TypedState, MpiError> {
        Ok(TypedState { ok: false })
    }

    fn step(&self, mpi: &Mpi, state: &mut TypedState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let shapes = vec![
            Shape::Point,
            Shape::Circle { radius: 2.5 },
            Shape::Poly(vec![(0, 0), (1, 2), (-3, 4)]),
        ];
        if me == 0 {
            mpi.send(&comm, 1, 5, &shapes)?;
            let (back, _): (Vec<Shape>, _) = mpi.recv(&comm, Some(1), Some(6))?;
            assert_eq!(back, shapes);
        } else if me == 1 {
            let (got, status): (Vec<Shape>, _) = mpi.recv(&comm, Some(0), Some(5))?;
            assert_eq!(status.source, 0);
            mpi.send(&comm, 0, 6, &got)?;
        }
        mpi.barrier(&comm)?;
        state.ok = true;
        Ok(StepOutcome::Done)
    }
}

#[test]
fn typed_payloads_roundtrip() {
    let rt = test_runtime("typed", 1);
    let results = mpirun(&rt, Arc::new(TypedApp), RunConfig::new(2))
        .unwrap()
        .wait()
        .unwrap();
    assert!(results.iter().all(|(s, _)| s.ok));
    rt.shutdown();
}

/// Invalid arguments surface as errors, not hangs or panics.
struct InvalidApp;

struct InvalidState;
codec::wire_struct!(InvalidState);

impl MpiApp for InvalidApp {
    type State = InvalidState;

    fn init_state(&self, _mpi: &Mpi) -> Result<InvalidState, MpiError> {
        Ok(InvalidState)
    }

    fn step(&self, mpi: &Mpi, _state: &mut InvalidState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        assert!(mpi.send(&comm, 99, 0, &0u8).is_err(), "rank out of range");
        assert!(
            matches!(mpi.recv::<u8>(&comm, Some(50), None), Err(MpiError::Invalid { .. })),
            "recv source out of range"
        );
        assert!(mpi.wait_send(ompi::mpi::Request(424242)).is_err());
        Ok(StepOutcome::Done)
    }
}

#[test]
fn invalid_arguments_are_errors() {
    let rt = test_runtime("invalid", 1);
    mpirun(&rt, Arc::new(InvalidApp), RunConfig::new(2))
        .unwrap()
        .wait()
        .unwrap();
    rt.shutdown();
}

/// Probe, sendrecv, and scan coverage.
struct ExtendedApp;

struct ExtState {
    scan: u64,
    probed: (u32, u32),
    swapped: u32,
}
codec::wire_struct!(ExtState { scan, probed, swapped });

impl MpiApp for ExtendedApp {
    type State = ExtState;

    fn init_state(&self, _mpi: &Mpi) -> Result<ExtState, MpiError> {
        Ok(ExtState {
            scan: 0,
            probed: (0, 0),
            swapped: 0,
        })
    }

    fn step(&self, mpi: &Mpi, state: &mut ExtState) -> Result<StepOutcome, MpiError> {
        let comm = mpi.world().clone();
        let me = comm.rank();
        let n = comm.size();

        // Inclusive prefix sum of (rank + 1).
        state.scan = mpi.scan(&comm, u64::from(me) + 1, |a, b| a + b)?;

        // Probe before receiving: neighbor ring exchange.
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        mpi.send(&comm, next, 42, &(me * 7))?;
        let status = mpi.probe(&comm, Some(prev), Some(42))?;
        state.probed = (status.source, status.tag);
        // The probed message is still there to receive.
        let (value, status2): (u32, _) = mpi.recv(&comm, Some(prev), Some(42))?;
        assert_eq!(status2.source, status.source);
        assert_eq!(value, prev * 7);

        // Sendrecv swap with the ring neighbor.
        let (back, _): (u32, _) =
            mpi.sendrecv(&comm, next, 43, &me, Some(prev), Some(43))?;
        state.swapped = back;

        mpi.barrier(&comm)?;
        Ok(StepOutcome::Done)
    }
}

#[test]
fn probe_sendrecv_scan() {
    let rt = test_runtime("extended_api", 2);
    let results = mpirun(&rt, Arc::new(ExtendedApp), RunConfig::new(5))
        .unwrap()
        .wait()
        .unwrap();
    for (r, (state, _)) in results.iter().enumerate() {
        let r = r as u32;
        let expected_scan: u64 = (1..=u64::from(r) + 1).sum();
        assert_eq!(state.scan, expected_scan, "rank {r} scan");
        let prev = (r + 5 - 1) % 5;
        assert_eq!(state.probed, (prev, 42), "rank {r} probe");
        assert_eq!(state.swapped, prev, "rank {r} sendrecv");
    }
    rt.shutdown();
}
