//! One graph, one metered profile: however a CSR is built or loaded, the
//! modeled processors see the same counts and the same work tallies,
//! because every `CsrGraph` finds a mirror slot the same way (one load of
//! its reverse-edge index).

use cnc_cpu::{BmpMode, CpuKernel};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::{read_prepared, write_prepared};
use cnc_graph::{io, CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_intersect::MpsConfig;
use cnc_knl::counts_and_work_of;

/// `d`'s tiny graph through every constructor and loader, each with the
/// name of its path.
fn every_construction(d: Dataset) -> Vec<(&'static str, CsrGraph)> {
    let built = d.build(Scale::Tiny);
    let mut bin = Vec::new();
    io::write_csr(&built, &mut bin).expect("write CNCCSR01");
    let pg = PreparedGraph::from_csr(built.clone(), ReorderPolicy::None);
    let mut image = Vec::new();
    write_prepared(&pg, &mut image).expect("write CNCPREP5");
    let mut all = vec![
        ("PreparedGraph::from_csr", pg.graph().clone()),
        (
            "read_csr",
            io::read_csr(bin.as_slice()).expect("read CNCCSR01"),
        ),
        (
            "read_prepared",
            read_prepared(image.as_slice())
                .expect("read CNCPREP5")
                .graph()
                .clone(),
        ),
    ];
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    {
        use cnc_graph::prepare::{map_execution_csr, map_prepared};
        let path = std::env::temp_dir().join(format!(
            "cnc-one-profile-{}-{}.prep",
            std::process::id(),
            d.name()
        ));
        std::fs::write(&path, &image).expect("write image file");
        let mapped = map_prepared(&path).expect("map CNCPREP5");
        all.push(("map_prepared", mapped.graph().clone()));
        let execution = map_execution_csr(&path, false).expect("map execution CSR");
        all.push(("map_execution_csr", execution));
        std::fs::remove_file(&path).expect("remove image file");
    }
    all.push(("Dataset::build", built));
    all
}

#[test]
fn every_construction_meters_one_profile() {
    for d in [Dataset::TwS, Dataset::FrS] {
        let graphs = every_construction(d);
        let (_, reference) = graphs.last().expect("Dataset::build comes last");
        for kernel in [
            CpuKernel::Merge,
            CpuKernel::Mps(MpsConfig::default()),
            CpuKernel::Bmp(BmpMode::Plain),
        ] {
            let (counts, work) = counts_and_work_of(reference, &kernel);
            for (what, g) in &graphs {
                assert_eq!(g, reference, "{} {what}: same CSR", d.name());
                let (got_counts, got_work) = counts_and_work_of(g, &kernel);
                assert!(
                    got_counts == counts,
                    "{} {what} {kernel:?}: counts",
                    d.name()
                );
                assert_eq!(got_work, work, "{} {what} {kernel:?}: work", d.name());
            }
        }
    }
}
