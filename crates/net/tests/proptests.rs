//! Property-based tests for the communication substrate.

use opt_net::{
    all_reduce_time_s, p2p_time_s, ring_all_reduce_wire_bytes, tcp_rendezvous, CollectiveWorld,
    CostModel, LocalTransport, P2pMesh, SharedPayload, Topology, TrafficClass, TrafficLedger,
    Transport, TransportError,
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
/// result. `make_group` builds each member's view of the group — shared
/// clones for the in-process world, per-rank transports for TCP.
fn adversarial_round<Tr: Transport>(
    groups: Vec<opt_net::CollectiveGroup<Tr>>,
    inputs: &[Matrix],
    order: &[usize],
) -> Vec<Matrix> {
    let n = inputs.len();
    let mut outs: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
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
                    g.all_reduce_sum(member, m).expect("all-reduce decode")
                }),
            ));
        }
        for (member, h) in handles {
            outs[member] = Some(h.join().expect("member thread"));
        }
    });
    outs.into_iter().map(|o| o.expect("filled")).collect()
}

proptest! {
    #[test]
    fn ring_wire_bytes_bounded_by_2v(volume in 0.0f64..1e12, ranks in 1usize..1024) {
        let wire = ring_all_reduce_wire_bytes(volume, ranks);
        prop_assert!(wire >= 0.0);
        prop_assert!(wire <= 2.0 * volume + 1e-9);
        if ranks == 1 {
            prop_assert_eq!(wire, 0.0);
        }
    }

    #[test]
    fn all_reduce_time_monotone_in_ranks(volume in 1.0f64..1e9, ranks in 2usize..128) {
        let t1 = all_reduce_time_s(volume, ranks, 10e9, 5e-6);
        let t2 = all_reduce_time_s(volume, ranks + 1, 10e9, 5e-6);
        prop_assert!(t2 >= t1, "more ranks cannot be faster for fixed volume");
    }

    #[test]
    fn p2p_time_linear_in_volume(v in 1.0f64..1e9, bw in 1e9f64..1e12) {
        let t1 = p2p_time_s(v, bw, 0.0);
        let t2 = p2p_time_s(2.0 * v, bw, 0.0);
        prop_assert!((t2 - 2.0 * t1).abs() < 1e-12 * t2.max(1.0));
    }

    #[test]
    fn fusion_speedup_matches_closed_form(d in 2usize..256) {
        let cm = CostModel::new(Topology::paper_cluster());
        let expect = (d as f64 - 1.0) / (2.0 * d as f64 - 1.0);
        prop_assert!((cm.embedding_fusion_speedup(d) - expect).abs() < 1e-9);
    }

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
        prop_assert_eq!(transport.try_recv_value::<usize>(0, 1, 0).unwrap(), None);
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
            let outs = adversarial_round(groups, &inputs, &order);
            for (r, out) in outs.iter().enumerate() {
                assert_bits_equal(out, &expect, &format!("round {round} rank {r}"))?;
            }
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

        // One transport per rank, exactly like one process per rank; each
        // rank builds its own CollectiveWorld and carves the same group,
        // so channel ids agree (the rule real worker processes follow).
        let dir = fresh_rdv_dir();
        let transports: Vec<_> = thread::scope(|s| {
            (0..n_ranks)
                .map(|r| {
                    let dir = dir.clone();
                    s.spawn(move || {
                        tcp_rendezvous(dir, n_ranks, r, Duration::from_secs(20))
                            .expect("rendezvous")
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("mesh"))
                .collect()
        });
        let groups: Vec<_> = transports
            .into_iter()
            .map(|t| {
                CollectiveWorld::over(Arc::new(t)).group(&(0..n_ranks).collect::<Vec<_>>())
            })
            .collect();

        for round in 0..2u64 {
            let order = shuffled(n_ranks, sched ^ round);
            let outs = adversarial_round(groups.clone(), &inputs, &order);
            for (r, out) in outs.iter().enumerate() {
                assert_bits_equal(out, &expect, &format!("tcp round {round} rank {r}"))?;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
