// Scanned as the server binary, `src/bin/cegcli.rs`. Served paths in
// both spellings pass; `cegraph::workload::Dataset` in this comment, in
// a string and as a local name does not fire; the grouped import of
// `cegraph::estimators` does, once.
mod cli;

use std::sync::Arc;

use ceg_graph::io::load_graph;
use cegraph::service::{DatasetRegistry, Server};
use cegraph::{catalog::MarkovTable, estimators::render, graph};

fn serve(path: &str) {
    let ceg_workload = "cegraph::workload::Dataset";
    let registry = Arc::new(DatasetRegistry::with_jobs(ceg_workload.len()));
    let _ = (load_graph(path), registry, MarkovTable::default(), graph::MAX);
}
