//! Property-based tests for the communication substrate.

use opt_net::{
    tcp_rendezvous, CollectiveWorld, LocalTransport, P2pMesh, SharedPayload, TrafficClass,
    TrafficLedger, Transport, TransportError,
};
use opt_tensor::{Matrix, Persist, SeedStream};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The contract both transports must honor: the all-reduce result is the
/// strict member-order left fold, bit for bit.
fn member_order_reference(inputs: &[Matrix]) -> Matrix {
    let mut acc = inputs[0].clone();
    for m in &inputs[1..] {
        acc.add_assign(m);
    }
    acc
}

fn assert_bits_equal(
    got: &Matrix,
    expect: &Matrix,
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.shape(), expect.shape(), "{} shape", what);
    for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} != {}", what, a, b);
    }
    Ok(())
}

/// A tiny deterministic shuffler (Fisher–Yates over an LCG), so the
/// adversarial schedule is reproducible from the proptest case seed.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Fresh scratch directory per TCP world (stale endpoint files from an
/// earlier case would be read as live peers).
fn fresh_rdv_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "opt-net-proptest-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one all-reduce round where member threads *arrive* in an
/// adversarial (shuffled, staggered) order, returning every member's
/// result. `groups` holds each member's view of the group — shared
/// clones for the in-process world, per-rank transports for TCP — and
/// `contribute` is what a member does in the round.
fn adversarial_round<Tr: Transport, In: Clone + Send, Out: Send>(
    groups: Vec<opt_net::CollectiveGroup<Tr>>,
    inputs: &[In],
    order: &[usize],
    contribute: impl Fn(&opt_net::CollectiveGroup<Tr>, usize, In) -> Out + Sync,
) -> Vec<Out> {
    let n = inputs.len();
    let mut outs: Vec<Option<Out>> = (0..n).map(|_| None).collect();
    let contribute = &contribute;
    thread::scope(|s| {
        let mut handles = Vec::new();
        for (slot, &member) in order.iter().enumerate() {
            let m = inputs[member].clone();
            let g = groups[member].clone();
            // Stagger arrivals so the spawn order IS the arrival order:
            // the first spawned thread contributes last.
            let delay = Duration::from_millis(((order.len() - slot) * 3) as u64);
            handles.push((
                member,
                s.spawn(move || {
                    thread::sleep(delay);
                    contribute(&g, member, m)
                }),
            ));
        }
        for (member, h) in handles {
            outs[member] = Some(h.join().expect("member thread"));
        }
    });
    outs.into_iter().map(|o| o.expect("filled")).collect()
}

fn sum_one<Tr: Transport>(g: &opt_net::CollectiveGroup<Tr>, rank: usize, m: Matrix) -> Matrix {
    g.all_reduce_sum(rank, m).expect("all-reduce decode")
}

/// A member's grouped round and its per-matrix loop over the same
/// inputs, back to back.
fn grouped_and_looped<Tr: Transport>(
    g: &opt_net::CollectiveGroup<Tr>,
    rank: usize,
    ms: Vec<Matrix>,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let grouped = g
        .all_reduce_sum_grouped(rank, ms.clone())
        .expect("grouped all-reduce");
    let looped = ms.into_iter().map(|m| sum_one(g, rank, m)).collect();
    (grouped, looped)
}

/// `n_ranks` contributions of `n_mats` matrices each: a seeded mix of
/// row vectors, column vectors and matrices, with magnitudes that differ
/// by rank so any deviation from the member-order fold changes bits.
fn mixed_inputs(n_ranks: usize, n_mats: usize, seed: u64) -> Vec<Vec<Matrix>> {
    let mut s = seed | 1;
    let mut next = |k: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % k
    };
    let shapes: Vec<(usize, usize)> = (0..n_mats)
        .map(|_| {
            let len = 1 + next(6) as usize;
            match next(3) {
                0 => (1, len),
                1 => (len, 1),
                _ => (len, 1 + next(5) as usize),
            }
        })
        .collect();
    let mut rng = SeedStream::new(seed);
    (0..n_ranks)
        .map(|i| {
            shapes
                .iter()
                .map(|&(r, c)| {
                    let mut m = rng.uniform_matrix(r, c, 1.0);
                    m.scale_assign(10f32.powi((i as i32 % 5) - 2));
                    m
                })
                .collect()
        })
        .collect()
}

/// Checks one member's grouped and looped results against the
/// member-order fold of every matrix.
fn assert_grouped_round(
    inputs: &[Vec<Matrix>],
    outs: &[(Vec<Matrix>, Vec<Matrix>)],
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for (r, (grouped, looped)) in outs.iter().enumerate() {
        prop_assert_eq!(grouped.len(), inputs[0].len());
        prop_assert_eq!(looped.len(), inputs[0].len());
        for i in 0..inputs[0].len() {
            let column: Vec<Matrix> = inputs.iter().map(|ms| ms[i].clone()).collect();
            let expect = member_order_reference(&column);
            assert_bits_equal(
                &grouped[i],
                &looped[i],
                &format!("{what} rank {r} matrix {i}"),
            )?;
            assert_bits_equal(&grouped[i], &expect, &format!("{what} rank {r} matrix {i}"))?;
        }
    }
    Ok(())
}

/// One transport per rank, exactly like one process per rank; each rank
/// builds its own CollectiveWorld and carves the same group, so channel
/// ids agree (the rule real worker processes follow).
fn tcp_groups(n_ranks: usize) -> Vec<opt_net::CollectiveGroup<opt_net::TcpTransport>> {
    let dir = fresh_rdv_dir();
    let transports: Vec<_> = thread::scope(|s| {
        (0..n_ranks)
            .map(|r| {
                let dir = dir.clone();
                s.spawn(move || {
                    tcp_rendezvous(dir, n_ranks, r, Duration::from_secs(20)).expect("rendezvous")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("mesh"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    transports
        .into_iter()
        .map(|t| CollectiveWorld::over(Arc::new(t)).group(&(0..n_ranks).collect::<Vec<_>>()))
        .collect()
}

proptest! {
    #[test]
    fn all_reduce_sum_equals_serial_sum(n_ranks in 2usize..5, seed in 0u64..200) {
        let mut rng = SeedStream::new(seed);
        let inputs: Vec<Matrix> = (0..n_ranks).map(|_| rng.uniform_matrix(3, 3, 2.0)).collect();
        let mut expect = Matrix::zeros(3, 3);
        for m in &inputs {
            expect.add_assign(m);
        }
        let world = CollectiveWorld::new(n_ranks);
        let group = world.group(&(0..n_ranks).collect::<Vec<_>>());
        let outs: Vec<Matrix> = thread::scope(|s| {
            inputs
                .iter()
                .enumerate()
                .map(|(r, m)| {
                    let g = group.clone();
                    let m = m.clone();
                    s.spawn(move || g.all_reduce_sum(r, m).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for o in outs {
            prop_assert!(o.sub(&expect).max_abs() < 1e-4);
        }
    }

    #[test]
    fn typed_hop_delivers_the_encoding_bit_for_bit_and_in_stats(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        // The zero-copy hop must be observationally identical to a hop
        // through the encoding a socket would carry: same bits delivered,
        // and the lane accounts exactly the encoded length — so swapping
        // backends can never perturb the determinism contract.
        let m = SeedStream::new(seed).uniform_matrix(rows, cols, 3.0);
        let t = LocalTransport::new(2);
        t.send_value(0, 1, 7, m.clone()).unwrap();
        let got: Matrix = t.recv_value(0, 1, 7, Duration::from_secs(5)).unwrap();
        let via_bytes = Matrix::from_bytes(&m.to_bytes()).unwrap();
        assert_bits_equal(&got, &via_bytes, "typed hop vs encode/decode")?;
        assert_bits_equal(&got, &m, "typed hop vs original")?;
        let stats = t.channel_stats();
        prop_assert_eq!(stats.len(), 1);
        prop_assert_eq!(stats[0].send_bytes, m.to_bytes().len() as u64);
        prop_assert_eq!(stats[0].recv_bytes, m.to_bytes().len() as u64);
    }

    #[test]
    fn shared_payload_forced_encode_matches_zero_copy(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        // A SharedPayload crossing a socket boundary is force-encoded
        // from its cache (the TCP path); the same payload handed off
        // zero-copy (the Local path) must carry exactly the same value.
        let m = SeedStream::new(seed).uniform_matrix(rows, cols, 3.0);
        let payload = SharedPayload::new(m.clone());
        let encoded = payload.encoded().to_vec();
        prop_assert_eq!(&encoded, &m.to_bytes(), "forced encode differs from Persist");
        let decoded = Matrix::from_bytes(&encoded).unwrap();
        let handed_off = payload.downcast::<Matrix>().expect("typed payload");
        assert_bits_equal(&decoded, &handed_off, "socket path vs zero-copy handoff")?;
        assert_bits_equal(&handed_off, &m, "zero-copy handoff vs original")?;
    }

    #[test]
    fn mesh_preserves_all_messages(n_msgs in 1usize..40) {
        let transport = Arc::new(LocalTransport::new(2));
        let mesh: P2pMesh<usize, _> = P2pMesh::over(Arc::clone(&transport), 0);
        for i in 0..n_msgs {
            mesh.send(0, 1, i);
        }
        for i in 0..n_msgs {
            prop_assert_eq!(mesh.recv(0, 1).unwrap(), i);
        }
        let rest = transport.recv_value::<usize>(0, 1, 0, Duration::ZERO);
        prop_assert!(matches!(rest, Err(TransportError::Timeout { .. })), "{:?}", rest);
    }

    #[test]
    fn ledger_totals_are_sums(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let ledger = TrafficLedger::new();
        ledger.record(TrafficClass::DataParallel, a);
        ledger.record(TrafficClass::InterStage, b);
        ledger.record(TrafficClass::Embedding, c);
        let s = ledger.snapshot();
        prop_assert_eq!(s.total_bytes(), a + b + c);
    }

    #[test]
    fn local_all_reduce_bit_identical_under_adversarial_arrival(
        n_ranks in 2usize..5,
        seed in 0u64..500,
        sched in 0u64..u64::MAX,
    ) {
        // Ill-conditioned inputs (mixed magnitudes) so any deviation from
        // the member-order reduction changes the rounded bits.
        let mut rng = SeedStream::new(seed);
        let inputs: Vec<Matrix> = (0..n_ranks)
            .map(|i| {
                let mut m = rng.uniform_matrix(3, 4, 1.0);
                m.scale_assign(10f32.powi((i as i32 % 5) - 2));
                m
            })
            .collect();
        let expect = member_order_reference(&inputs);
        let world = CollectiveWorld::new(n_ranks);
        let group = world.group(&(0..n_ranks).collect::<Vec<_>>());
        // Three rounds with different adversarial arrival orders: the
        // result must never depend on who showed up first.
        for round in 0..3u64 {
            let order = shuffled(n_ranks, sched ^ round);
            let groups = (0..n_ranks).map(|_| group.clone()).collect();
            let outs = adversarial_round(groups, &inputs, &order, sum_one);
            for (r, out) in outs.iter().enumerate() {
                assert_bits_equal(out, &expect, &format!("round {round} rank {r}"))?;
            }
        }
    }

    #[test]
    fn local_grouped_all_reduce_matches_the_per_matrix_loop(
        n_ranks in 2usize..5,
        n_mats in 1usize..7,
        seed in 0u64..u64::MAX,
        sched in 0u64..u64::MAX,
    ) {
        let inputs = mixed_inputs(n_ranks, n_mats, seed);
        let group = CollectiveWorld::new(n_ranks).group(&(0..n_ranks).collect::<Vec<_>>());
        for round in 0..2u64 {
            let order = shuffled(n_ranks, sched ^ round);
            let groups = (0..n_ranks).map(|_| group.clone()).collect();
            let outs = adversarial_round(groups, &inputs, &order, grouped_and_looped);
            assert_grouped_round(&inputs, &outs, &format!("local round {round}"))?;
        }
    }
}

proptest! {
    // TCP worlds mesh real sockets per case; a smaller case budget keeps
    // the suite fast while still sweeping world sizes and schedules.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tcp_all_reduce_bit_identical_under_adversarial_arrival(
        n_ranks in 2usize..4,
        seed in 0u64..500,
        sched in 0u64..u64::MAX,
    ) {
        let mut rng = SeedStream::new(seed);
        let inputs: Vec<Matrix> = (0..n_ranks)
            .map(|i| {
                let mut m = rng.uniform_matrix(2, 5, 1.0);
                m.scale_assign(10f32.powi((i as i32 % 5) - 2));
                m
            })
            .collect();
        let expect = member_order_reference(&inputs);
        let groups = tcp_groups(n_ranks);
        for round in 0..2u64 {
            let order = shuffled(n_ranks, sched ^ round);
            let outs = adversarial_round(groups.clone(), &inputs, &order, sum_one);
            for (r, out) in outs.iter().enumerate() {
                assert_bits_equal(out, &expect, &format!("tcp round {round} rank {r}"))?;
            }
        }
    }

    #[test]
    fn tcp_grouped_all_reduce_matches_the_per_matrix_loop(
        n_mats in 1usize..7,
        seed in 0u64..u64::MAX,
        sched in 0u64..u64::MAX,
    ) {
        for n_ranks in [2, 3] {
            let inputs = mixed_inputs(n_ranks, n_mats, seed);
            let groups = tcp_groups(n_ranks);
            for round in 0..2u64 {
                let order = shuffled(n_ranks, sched ^ round);
                let outs = adversarial_round(groups.clone(), &inputs, &order, grouped_and_looped);
                assert_grouped_round(&inputs, &outs, &format!("tcp {n_ranks} ranks round {round}"))?;
            }
        }
    }
}

/// The satellite corruption check at the integration level, using only
/// the public API: a raw socket completes the hello handshake and then
/// delivers a frame with one flipped bit — the transport must surface
/// `Corrupt`, never the damaged payload.
#[test]
fn tcp_transport_rejects_a_tampered_frame() {
    use std::io::Write;

    let bound = opt_net::TcpTransport::bind(2, 0, "127.0.0.1:0").expect("bind");
    let addr = bound.addr();
    let attacker = thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(&opt_net::wire_hello(1)).expect("hello");
        let mut frame = opt_net::wire_frame(3, 0, b"gradient bits");
        let n = frame.len();
        frame[n - 9] ^= 0x20;
        s.write_all(&frame).expect("frame");
        s.flush().expect("flush");
        thread::sleep(Duration::from_secs(2));
    });
    let t = bound.establish(&[], Duration::from_secs(10)).expect("mesh");
    let err = t
        .recv_value::<Vec<u8>>(1, 0, 3, Duration::from_secs(5))
        .unwrap_err();
    assert!(
        matches!(err, TransportError::Corrupt { .. }),
        "tampered frame yielded {err:?}"
    );
    attacker.join().unwrap();
}
