//! A Figure-10-style comparison: run both optimized algorithms on all three
//! processors (real CPU + simulated KNL and GPU) over one dataset analogue
//! and print who wins.
//!
//! ```text
//! cargo run --release --example platform_comparison [tw|lj|or|wi|fr]
//! ```

use cnc_core::{Algorithm, Platform, RunDetail, Runner};
use cnc_graph::datasets::{Dataset, Scale};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "tw".into());
    let dataset = match which.as_str() {
        "lj" => Dataset::LjS,
        "or" => Dataset::OrS,
        "wi" => Dataset::WiS,
        "tw" => Dataset::TwS,
        "fr" => Dataset::FrS,
        other => {
            eprintln!("unknown dataset {other:?}; use lj|or|wi|tw|fr");
            std::process::exit(1);
        }
    };
    let graph = dataset.build(Scale::Tiny);
    let scale = dataset.capacity_scale(&graph);
    println!(
        "{} analogue: {} vertices, {} edges (capacity scale {:.1e} vs the paper's {})",
        dataset.name(),
        graph.num_vertices(),
        graph.num_undirected_edges(),
        scale,
        dataset.paper_name()
    );

    let configs: Vec<(&str, Platform, Algorithm)> = vec![
        (
            "CPU-MPS (modeled 56t)",
            Platform::CpuModel {
                threads: 56,
                capacity_scale: scale,
            },
            Algorithm::mps(),
        ),
        (
            "CPU-BMP (modeled 56t)",
            Platform::CpuModel {
                threads: 56,
                capacity_scale: scale,
            },
            Algorithm::bmp_rf(),
        ),
        (
            "KNL-MPS (256t, flat)",
            Platform::knl_flat(scale),
            Algorithm::mps(),
        ),
        (
            "KNL-BMP (256t, flat)",
            Platform::knl_flat(scale),
            Algorithm::bmp_rf(),
        ),
        ("GPU-MPS", Platform::gpu(scale), Algorithm::mps()),
        ("GPU-BMP", Platform::gpu(scale), Algorithm::bmp_rf()),
    ];

    let mut results = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    println!(
        "\n{:<24} {:>14} {:>12}",
        "configuration", "modeled time", "notes"
    );
    for (label, platform, algorithm) in configs {
        let r = Runner::new(platform, algorithm).run(&graph);
        // Every configuration must agree bit-for-bit.
        match &reference {
            None => reference = Some(r.counts().to_vec()),
            Some(want) => assert_eq!(r.counts(), want.as_slice(), "{label} disagrees"),
        }
        let modeled = r.modeled_seconds.unwrap();
        let note = match &r.detail {
            RunDetail::Gpu(g) => format!("{} pass(es), {} UM faults", g.passes, g.faults),
            RunDetail::Modeled(m) => format!("cache hit {:.0}%", m.cache_hit_ratio * 100.0),
            RunDetail::Measured => String::new(),
        };
        println!("{label:<24} {:>11.3} ms {:>18}", modeled * 1e3, note);
        results.push((label, modeled));
    }

    results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!(
        "\nbest: {} — worst: {} ({:.1}x apart)",
        results.first().unwrap().0,
        results.last().unwrap().0,
        results.last().unwrap().1 / results.first().unwrap().1
    );
    println!("(paper finding: best is KNL-MPS or GPU-BMP; worst is GPU-MPS)");

    // And one real measured run on this host for comparison.
    let real = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf()).run(&graph);
    println!(
        "\nthis host (real, {} workers): {:.1} ms wall",
        cnc_cpu::default_workers(),
        real.wall_seconds * 1e3
    );
}
