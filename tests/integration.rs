//! End-to-end integration: dataset generation → workload instantiation →
//! statistics → every estimator → report rendering, plus cross-crate
//! invariants the paper's evaluation relies on.

use cegraph::catalog::MarkovTable;
use cegraph::core::{Aggr, Heuristic, PathLen};
use cegraph::estimators::planner::{execute_plan, optimize};
use cegraph::estimators::{
    CardinalityEstimator, CbsEstimator, CharacteristicSets, CsEstimator, DegreeStats,
    MolpEstimator, OptimisticEstimator, Rdf3xDefaultEstimator, SketchedMolp, SketchedOptimistic,
    SumRdfEstimator, SummaryGraph, WanderJoinEstimator,
};
use cegraph::workload::runner::{render_table, run_estimators};
use cegraph::workload::{Dataset, Workload};

#[test]
fn full_pipeline_on_hetionet_job() {
    let graph = Dataset::Hetionet.generate(1);
    let queries = Workload::Job.build(&graph, 2, 1);
    assert!(queries.len() >= 5, "workload too small: {}", queries.len());

    let table = MarkovTable::build(
        &graph,
        &queries.iter().map(|q| q.query.clone()).collect::<Vec<_>>(),
        2,
    );
    let degs = DegreeStats::build_base(&graph);
    let cs = CharacteristicSets::build(&graph);
    let summary = SummaryGraph::build(&graph, 32);

    let mut ests: Vec<Box<dyn CardinalityEstimator>> = vec![
        Box::new(OptimisticEstimator::new(
            &table,
            Heuristic::new(PathLen::MaxHop, Aggr::Max),
        )),
        Box::new(OptimisticEstimator::new(
            &table,
            Heuristic::new(PathLen::MinHop, Aggr::Min),
        )),
        Box::new(MolpEstimator::new(&degs, false)),
        Box::new(CbsEstimator::new(&degs)),
        Box::new(CsEstimator::new(&cs)),
        Box::new(SumRdfEstimator::new(&summary, 2_000_000)),
        Box::new(WanderJoinEstimator::new(&graph, 0.05, 7)),
        Box::new(Rdf3xDefaultEstimator::new(&graph)),
        Box::new(SketchedOptimistic::max_hop_max(&graph, &table, 4)),
        Box::new(SketchedMolp::new(&graph, 4)),
    ];
    let reports = run_estimators(&queries, &mut ests);
    assert_eq!(reports.len(), ests.len());

    // MOLP and sketched MOLP never underestimate
    for r in &reports {
        if r.name.starts_with("MOLP") {
            assert!(
                r.summary.min >= -1e-6,
                "{} underestimated: min signed log q-error {}",
                r.name,
                r.summary.min
            );
        }
    }

    // rendering must produce a row per estimator
    let table_txt = render_table("integration", &reports);
    for r in &reports {
        assert!(table_txt.contains(&r.name), "missing row for {}", r.name);
    }
}

#[test]
fn max_hop_max_beats_min_hop_min_on_acyclic() {
    // the paper's headline result, end to end on a synthetic dataset
    let graph = Dataset::Dblp.generate(3);
    let queries = Workload::Acyclic.build(&graph, 2, 3);
    assert!(!queries.is_empty());
    let table = MarkovTable::build(
        &graph,
        &queries.iter().map(|q| q.query.clone()).collect::<Vec<_>>(),
        3,
    );
    let mut mm = OptimisticEstimator::new(&table, Heuristic::new(PathLen::MaxHop, Aggr::Max));
    let mut nn = OptimisticEstimator::new(&table, Heuristic::new(PathLen::MinHop, Aggr::Min));
    let mut mm_err = 0.0f64;
    let mut nn_err = 0.0f64;
    let mut n = 0usize;
    for wq in &queries {
        let (Some(a), Some(b)) = (mm.estimate(&wq.query), nn.estimate(&wq.query)) else {
            continue;
        };
        mm_err += cegraph::estimators::oracle::qerror(a, wq.truth).log10();
        nn_err += cegraph::estimators::oracle::qerror(b, wq.truth).log10();
        n += 1;
    }
    assert!(n > 0);
    assert!(
        mm_err <= nn_err + 1e-9,
        "max-hop-max mean log q-error {} worse than min-hop-min {}",
        mm_err / n as f64,
        nn_err / n as f64
    );
}

#[test]
fn every_estimator_is_deterministic() {
    let graph = Dataset::Epinions.generate(5);
    let queries = Workload::Job.build(&graph, 1, 5);
    let table = MarkovTable::build(
        &graph,
        &queries.iter().map(|q| q.query.clone()).collect::<Vec<_>>(),
        2,
    );
    let degs = DegreeStats::build_base(&graph);
    for wq in &queries {
        let mut a = OptimisticEstimator::recommended(&table);
        let mut b = OptimisticEstimator::recommended(&table);
        assert_eq!(a.estimate(&wq.query), b.estimate(&wq.query));
        let mut m1 = MolpEstimator::new(&degs, false);
        let mut m2 = MolpEstimator::new(&degs, false);
        assert_eq!(m1.estimate(&wq.query), m2.estimate(&wq.query));
    }
}

#[test]
fn planner_uses_estimates_end_to_end() {
    let graph = Dataset::Watdiv.generate(2);
    let queries = Workload::Job.build(&graph, 1, 2);
    let table = MarkovTable::build(
        &graph,
        &queries.iter().map(|q| q.query.clone()).collect::<Vec<_>>(),
        2,
    );
    for wq in queries.iter().take(4) {
        let mut est = OptimisticEstimator::recommended(&table);
        let (plan, cost) = optimize(&wq.query, &mut est);
        assert!(cost >= 0.0);
        if let Some(stats) = execute_plan(&graph, &wq.query, &plan, 8_000_000) {
            assert_eq!(stats.output as f64, wq.truth, "plan output != truth");
        }
    }
}

#[test]
fn workload_truths_match_executor() {
    let graph = Dataset::Hetionet.generate(8);
    let queries = Workload::Cyclic.build(&graph, 1, 8);
    for wq in &queries {
        let direct = cegraph::exec::count(&graph, &wq.query) as f64;
        assert_eq!(direct, wq.truth, "{}", wq.template);
    }
}

#[test]
fn vertex_labels_flow_through_estimation() {
    // Section 6.1's vertex-label extension via the unary-relation
    // reduction: labels filter matches and Markov statistics cover them.
    use cegraph::exec::count;
    use cegraph::graph::GraphBuilder;
    use cegraph::query::{templates, VertexLabelSpace};

    let space = VertexLabelSpace::new(2);
    let mut b = GraphBuilder::new(24);
    for i in 0..8u32 {
        b.add_edge(i, 8 + i, 0);
        b.add_edge(8 + i, 16 + (i % 4), 1);
        if i % 2 == 0 {
            space.label_vertex(&mut b, 8 + i, 0);
        }
    }
    let g = b.build();

    let plain = templates::path(2, &[0, 1]);
    let labeled = space.with_vertex_label(&plain, 1, 0);
    let truth_plain = count(&g, &plain);
    let truth_labeled = count(&g, &labeled);
    assert!(truth_labeled < truth_plain, "label must filter matches");

    // a Markov table of size 3 answers the 3-edge labeled query exactly
    let t = MarkovTable::build_for_query(&g, &labeled, 3);
    let mut est = OptimisticEstimator::recommended(&t);
    let e = est.estimate(&labeled).unwrap();
    assert_eq!(e, truth_labeled as f64);

    // with h = 2 the estimator must still produce a sane estimate
    let t2 = MarkovTable::build_for_query(&g, &labeled, 2);
    let mut est2 = OptimisticEstimator::recommended(&t2);
    let e2 = est2.estimate(&labeled).unwrap();
    assert!(e2 > 0.0 && e2.is_finite());
}

/// An edge-list id past its type is refused where the file is read, not
/// truncated into the type: `cegcli serve` exits 1 and names the line and
/// field instead of booting `4294967296 1 0` as an edge out of vertex 0.
#[test]
fn serve_refuses_an_edge_list_with_an_id_past_its_type() {
    let path = std::env::temp_dir().join(format!("ceg-wide-id-{}.edges", std::process::id()));
    std::fs::write(&path, "0 1 0\n4294967296 1 0\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cegcli"))
        .args(["serve", "127.0.0.1:0", path.to_str().unwrap()])
        .output()
        .expect("run cegcli serve");
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("line 2: field `src` out of range"),
        "stderr: {stderr}"
    );
}

/// A hop depth below 2 is a usage error for both commands that take one,
/// refused before any file is read: exit 2 and a message, not the panic
/// `MarkovTable` raises for it.
#[test]
fn a_hop_depth_below_two_is_a_usage_error() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let edges = dir.join(format!("ceg-low-h-{tag}.edges"));
    let workload = dir.join(format!("ceg-low-h-{tag}.wl"));
    let markov = dir.join(format!("ceg-low-h-{tag}.markov"));
    std::fs::write(&edges, "0 1 0\n1 2 0\n").unwrap();
    std::fs::write(&workload, "ok 1 2 1 0 1 0\n").unwrap();
    let (edges_s, workload_s) = (edges.to_str().unwrap(), workload.to_str().unwrap());
    for h in ["1", "0"] {
        let runs = [
            (
                env!("CARGO_BIN_EXE_cegcli"),
                vec!["serve", "127.0.0.1:0", edges_s, "-", h],
            ),
            (
                env!("CARGO_BIN_EXE_cegtool"),
                vec!["stats", edges_s, workload_s, h, markov.to_str().unwrap()],
            ),
        ];
        for (bin, args) in runs {
            let out = std::process::Command::new(bin)
                .args(&args)
                .output()
                .expect("run the binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("h >= 2"), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    assert!(!markov.exists(), "no table was written");
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&workload).unwrap();
}

/// A workload line whose edge names a variable past `num_vars` is refused
/// where the file is read: `cegtool estimate` exits 1 with the line, not a
/// panic out of `QueryGraph::new`.
#[test]
fn estimate_refuses_a_workload_edge_outside_its_variables() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let edges = dir.join(format!("ceg-bad-wl-{tag}.edges"));
    let workload = dir.join(format!("ceg-bad-wl-{tag}.wl"));
    std::fs::write(&edges, "0 1 0\n1 2 0\n").unwrap();
    std::fs::write(&workload, "ok 1 2 1 0 1 0\nt 5 2 1 0 7 0\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cegtool"))
        .args([
            "estimate",
            edges.to_str().unwrap(),
            workload.to_str().unwrap(),
        ])
        .output()
        .expect("run cegtool estimate");
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&workload).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("line 2: variable 7 outside 0..2"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// An argument shaped like a flag the subcommand does not declare is a
/// usage error raised before any I/O: exit 2 naming the flag, never a
/// positional path (`generate` used to write its graph to a file named
/// `--bogus`).
#[test]
fn an_unknown_flag_is_a_usage_error_before_any_io() {
    let dir = std::env::temp_dir().join(format!("ceg-unknown-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_cegtool"),
            vec!["generate", "imdb", "1", "--bogus"],
        ),
        (
            env!("CARGO_BIN_EXE_cegcli"),
            vec!["serve", "127.0.0.1:0", "g.edges", "--bogus"],
        ),
        (
            env!("CARGO_BIN_EXE_cegtool"),
            vec!["query", "127.0.0.1:1", "w.wl", "--bogus=1"],
        ),
    ] {
        let out = std::process::Command::new(bin)
            .current_dir(&dir)
            .args(&args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args.last().unwrap();
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "files were written: {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each command lives in one binary: the server binary refuses a tool
/// command, and the tool refuses `serve`, as usage errors raised before
/// any I/O (exit 2, not the exit 1 of a missing file or a refused
/// connection), each naming the binary that has the command.
#[test]
fn a_command_of_the_other_binary_is_a_usage_error_naming_it() {
    let dir = std::env::temp_dir().join(format!("ceg-other-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (bin, args, hint) in [
        (
            env!("CARGO_BIN_EXE_cegcli"),
            ["query", "127.0.0.1:1", "w.wl"],
            "`cegtool`",
        ),
        (
            env!("CARGO_BIN_EXE_cegtool"),
            ["serve", "127.0.0.1:0", "g.edges"],
            "`cegcli serve`",
        ),
    ] {
        let out = std::process::Command::new(bin)
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown command `{}`", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(hint), "{args:?}: {stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "files were written: {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
