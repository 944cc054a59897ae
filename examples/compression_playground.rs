//! Compression playground: the two compressor families the paper trains
//! with or contrasts on the same synthetic gradient — compression ratio
//! and reconstruction error — then lazy error propagation on vs off over
//! one iteration's stream of micro-batch gradients.
//!
//! Run with: `cargo run --release --example compression_playground`

use optimus::compress::{Compressor, LazyErrorPropagator, PowerSgd, TopK};
use optimus::tensor::{relative_error, Matrix, SeedStream};

/// Micro-batches in the streamed iteration.
const MICRO_BATCHES: usize = 16;

/// Sends every micro-batch gradient of `stream` through one compressed
/// link and returns the relative error of the summed deliveries against
/// the summed true gradients.
fn deliver<C: Compressor>(mut link: LazyErrorPropagator<C>, stream: &[Matrix]) -> f32 {
    let (rows, cols) = stream[0].shape();
    let mut delivered = Matrix::zeros(rows, cols);
    let mut truth = Matrix::zeros(rows, cols);
    for g in stream {
        let (payload, _) = link.process(g, true);
        delivered.add_assign(&payload.decompress());
        truth.add_assign(g);
    }
    delivered.sub(&truth).norm() / truth.norm()
}

/// Prints one row of the LEP table: the same stream through a fresh
/// compressor with LEP off, then with it on.
fn lep_row<C: Compressor>(name: &str, make: impl Fn() -> C, stream: &[Matrix]) {
    let off = deliver(LazyErrorPropagator::new(make(), false), stream);
    let on = deliver(LazyErrorPropagator::new(make(), true), stream);
    println!("{name:<22} {off:>10.4} {on:>10.4}");
}

fn main() {
    let mut rng = SeedStream::new(7);
    let grad = rng.uniform_matrix(256, 128, 1.0);

    println!("single-shot compression of a 256x128 gradient:");
    println!("{:<22} {:>10} {:>12}", "compressor", "ratio", "rel. error");
    let mut entries: [(&str, Box<dyn Compressor>); 5] = [
        ("powersgd rank 1", Box::new(PowerSgd::new(1, 1))),
        ("powersgd rank 4", Box::new(PowerSgd::new(4, 1))),
        ("powersgd rank 16", Box::new(PowerSgd::new(16, 1))),
        ("topk 1%", Box::new(TopK::new(0.01))),
        ("topk 10%", Box::new(TopK::new(0.10))),
    ];
    for (name, comp) in entries.iter_mut() {
        let payload = comp.compress(&grad);
        println!(
            "{:<22} {:>9.1}x {:>12.4}",
            name,
            payload.ratio(),
            relative_error(&grad, &payload.decompress())
        );
    }

    println!(
        "\nlazy error propagation over one iteration of {MICRO_BATCHES} correlated 64x64 \
         micro-batch gradients\n(cumulative rel. error of what the link delivered):"
    );
    // Micro-batch gradients share a low-rank component plus their own noise.
    let base = rng
        .uniform_matrix(64, 4, 1.0)
        .matmul_t(&rng.uniform_matrix(64, 4, 1.0));
    let stream: Vec<Matrix> = (0..MICRO_BATCHES)
        .map(|_| base.add(&rng.uniform_matrix(64, 64, 0.2)))
        .collect();
    println!("{:<22} {:>10} {:>10}", "compressor", "LEP off", "LEP on");
    lep_row("powersgd rank 1", || PowerSgd::new(1, 3), &stream);
    lep_row("topk 10%", || TopK::new(0.10), &stream);
    println!("\nWith LEP each micro-batch's residual rides on the next micro-batch of the");
    println!("same iteration, so the update sees the dropped mass before the weights");
    println!("change; what the link still owes is exactly the last residual, which");
    println!("carries into the next iteration (Optimus-CC §5.1) — no stale error feedback.");
}
