//! Spot-check: simulated TCIM runtime on *full-size* stand-ins of the
//! two smallest Table V datasets, next to the paper's published TCIM
//! column. Documents the calibration of the per-edge host dispatch cost
//! (`tcim_arch::PimConfig::controller_overhead_s`).

fn main() {
    use tcim_core::{Backend, TcimConfig, TcimPipeline};
    use tcim_graph::datasets::Dataset;
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    for name in ["ego-facebook", "email-enron"] {
        let g = Dataset::by_name(name).unwrap().synthesize(1.0, 42).unwrap();
        let r = pipeline.count(&g, &Backend::SerialPim).unwrap();
        println!(
            "{name}: |E|={}, TCIM sim = {:.4} s (paper {})",
            g.edge_count(),
            r.modelled_time_s.unwrap(),
            if name == "ego-facebook" { "0.005" } else { "0.021" }
        );
    }
}
