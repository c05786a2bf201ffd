//! Regenerates the empirical Table 1 (experiment T1).
//!
//! Usage: `cargo run --release -p pm-bench --bin table1 [scale]`
//! where `scale` is the hexagon radius of the mixed family (default 6).

fn main() {
    let scale = pm_bench::arg_or(6);
    let table = pm_analysis::experiment_table1(scale);
    pm_bench::print_table(&table);
}
