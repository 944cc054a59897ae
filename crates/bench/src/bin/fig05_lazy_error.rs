//! Fig. 5: mechanism demonstration of lazy error propagation — the
//! residual of micro-batch i is folded into micro-batch i+1, and nothing
//! is lost within the iteration.

use opt_bench::{banner, print_table};
use opt_compress::{LazyErrorPropagator, PowerSgd};
use opt_tensor::{Matrix, SeedStream};

fn main() {
    banner("Fig. 5 — lazy error propagation across micro-batches");
    let mut rng = SeedStream::new(42);
    let mut link = LazyErrorPropagator::new(PowerSgd::new(2, 7), true);
    let mut delivered = Matrix::zeros(16, 16);
    let mut truth = Matrix::zeros(16, 16);
    let mut rows = Vec::new();
    for micro in 0..8 {
        let grad = rng.uniform_matrix(16, 16, 1.0);
        truth.add_assign(&grad);
        let (payload, _) = link.process(&grad, true);
        delivered.add_assign(&payload.decompress());
        let cum_err = delivered.sub(&truth).norm() / truth.norm();
        rows.push(vec![
            format!("{micro}"),
            format!("{:.4}", link.error_norm()),
            format!("{:.5}", link.error().map_or(0.0, Matrix::mean_all)),
            format!("{:.4}", cum_err),
        ]);
    }
    print_table(
        &[
            "micro-batch",
            "||eps|| preserved",
            "avg(eps)",
            "cumulative rel. err of delivered sum",
        ],
        &rows,
    );
    let resid = link.error().expect("residual").clone();
    let closed = delivered.add(&resid).sub(&truth).max_abs();
    println!("\nsum(delivered) + preserved residual - sum(true grads): max|.| = {closed:.2e}");
    println!("(== 0 up to float error: the error is delayed, never lost — paper Eq. 10)");
}
