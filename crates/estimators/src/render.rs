//! Rendering CEGs for inspection: Graphviz DOT output and text dumps.
//!
//! The paper communicates its framework through CEG drawings (Figures 3,
//! 4, 6, 7); this module produces the same pictures from live objects.

use ceg_core::ceg_o::CegO;
use ceg_query::QueryGraph;

use crate::ceg_m::{MolpStep, RelRef};

/// Graphviz DOT of a CEG_O (or CEG_OCR — same structure). Nodes are
/// labeled with their sub-query edge sets, edges with their rates.
pub fn ceg_o_to_dot(ceg: &CegO, query: &QueryGraph) -> String {
    let mut out = String::from("digraph ceg {\n  rankdir=BT;\n  node [shape=box];\n");
    for (i, mask) in ceg.nodes().iter().enumerate() {
        let label = if mask.is_empty() {
            "∅".to_string()
        } else if *mask == query.full_mask() {
            format!("Q {mask}")
        } else {
            mask.to_string()
        };
        out.push_str(&format!("  n{i} [label=\"{label}\"];\n"));
    }
    for e in ceg.ceg().edges() {
        let info = ceg.ext_info(e.tag);
        let style = if info.closes_cycle {
            ",style=dashed"
        } else {
            ""
        };
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{:.3}\"{style}];\n",
            e.from, e.to, e.rate
        ));
    }
    out.push_str("}\n");
    out
}

/// Text rendering of a MOLP minimum path: each step as
/// `X -> Y (deg, relation)` — the annotated path of Figure 7.
pub fn molp_path_to_string(query: &QueryGraph, steps: &[MolpStep]) -> String {
    let var_set = |mask: u32| -> String {
        let vars: Vec<String> = (0..query.num_vars())
            .filter(|&v| mask & (1 << v) != 0)
            .map(|v| format!("a{v}"))
            .collect();
        if vars.is_empty() {
            "∅".into()
        } else {
            vars.join("")
        }
    };
    let mut out = String::new();
    let mut w = 0u32;
    for s in steps {
        let rel = match s.rel {
            RelRef::Base(i) => format!("e{i}"),
            RelRef::Join(j) => format!("join{j}"),
        };
        let next = w | s.y;
        out.push_str(&format!(
            "({}) --deg({}, {})={:.2}/{}--> ({})\n",
            var_set(w),
            var_set(s.x),
            var_set(s.y),
            s.weight_ln.exp(),
            rel,
            var_set(next),
        ));
        w = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ceg_m::{molp_min_path, MolpInstance};
    use ceg_catalog::MarkovTable;
    use ceg_graph::GraphBuilder;
    use ceg_query::templates;

    fn toy() -> ceg_graph::LabeledGraph {
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 1);
        b.build()
    }

    #[test]
    fn dot_mentions_every_node_and_edge() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let t = MarkovTable::build_for_query(&g, &q, 2);
        let ceg = CegO::build(&q, &t);
        let dot = ceg_o_to_dot(&ceg, &q);
        assert!(dot.starts_with("digraph"));
        assert!(dot.matches("->").count() >= ceg.ceg().num_edges());
        assert!(dot.contains('∅'));
    }

    #[test]
    fn molp_path_renders_steps() {
        let g = toy();
        let q = templates::path(2, &[0, 1]);
        let inst = MolpInstance::from_graph(&g, &q);
        let (_, steps) = molp_min_path(&inst).unwrap();
        let txt = molp_path_to_string(&q, &steps);
        assert!(txt.contains("(∅)"));
        assert!(txt.lines().count() == steps.len());
    }
}
