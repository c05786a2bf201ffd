//! Runs every experiment (T1, F2–F9) at moderate scales and prints all
//! result tables — the one-stop reproduction entry point.
//!
//! Usage: `cargo run --release -p pm-bench --bin reproduce_all`

fn main() {
    let tables = vec![
        pm_analysis::experiment_table1(6),
        pm_analysis::experiment_dle_scaling(&[3, 5, 7, 9, 11]),
        pm_analysis::experiment_erosion_ablation(),
        pm_analysis::experiment_collect_scaling(&[8, 16, 32, 64, 128, 256]),
        pm_analysis::experiment_breadcrumbs(),
        pm_analysis::experiment_obd_scaling(&[3, 5, 7, 9, 11]),
        pm_analysis::experiment_full_pipeline(&[3, 5, 7, 9]),
        pm_analysis::experiment_scheduler_robustness(),
        pm_analysis::experiment_convergence(&[3, 5, 7, 9]),
    ];
    for table in tables {
        pm_bench::print_table(&table);
        println!();
    }
}
