//! Criterion benchmarks of the in-process communication substrate:
//! all-reduce groups and p2p mesh round-trips, plus the byte handling a
//! real wire adds per message (frame checksum, `Matrix` codec).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use opt_ckpt::framing;
use opt_net::{CollectiveWorld, P2pMesh};
use opt_tensor::{Matrix, Persist, SeedStream};
use std::thread;

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce_sum");
    for &ranks in &[2usize, 4, 8] {
        let mut rng = SeedStream::new(1);
        let m = rng.uniform_matrix(64, 64, 1.0);
        group.throughput(Throughput::Bytes((m.len() * 4 * ranks) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            let world = CollectiveWorld::new(ranks);
            let g = world.group(&(0..ranks).collect::<Vec<_>>());
            b.iter(|| {
                thread::scope(|s| {
                    let mut handles = Vec::new();
                    for r in 0..ranks {
                        let g = g.clone();
                        let m = m.clone();
                        handles.push(s.spawn(move || g.all_reduce_sum(r, m)));
                    }
                    for h in handles {
                        std::hint::black_box(h.join().unwrap().unwrap());
                    }
                });
            });
        });
    }
    group.finish();
}

fn bench_p2p(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2p_send_recv");
    for &elems in &[1024usize, 16 * 1024, 256 * 1024] {
        let mut rng = SeedStream::new(2);
        let m = rng.uniform_matrix(elems / 32, 32, 1.0);
        group.throughput(Throughput::Bytes((m.len() * 4) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(elems), &elems, |b, _| {
            let mesh: P2pMesh<Matrix> = P2pMesh::new(2);
            b.iter(|| {
                mesh.send(0, 1, m.clone());
                std::hint::black_box(mesh.recv(0, 1).unwrap());
            });
        });
    }
    group.finish();
}

/// One 256 KB gradient matrix (the mid model's 128 x 512 MLP weight)
/// through the two byte passes each side of a TCP hop makes: frame +
/// unframe (one checksum pass each), and `Matrix` encode + decode.
fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let m = SeedStream::new(3).uniform_matrix(128, 512, 1.0);
    let bytes = m.to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("frame_unframe_256k", |b| {
        b.iter(|| {
            let framed = framing::frame(b"OPTBENC\0", 1, &bytes);
            std::hint::black_box(framing::unframe(&framed, b"OPTBENC\0", 1).unwrap().len());
        });
    });
    group.bench_function("matrix_encode_decode_256k", |b| {
        b.iter(|| {
            let encoded = std::hint::black_box(&m).to_bytes();
            std::hint::black_box(Matrix::from_bytes(&encoded).unwrap());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_all_reduce, bench_p2p, bench_wire);
criterion_main!(benches);
