//! Graph rules: determinism reachability (UF011–UF012), lock-order
//! safety (UF020–UF021) and panic sites on sim paths (UF031).
//!
//! Token rules see one file at a time; these rules see the whole
//! workspace through the call graph built by [`crate::graph`]. Each
//! diagnostic is positioned at the *usage site* (the RNG call, the
//! blocking call, the panic site), never at the sim root — so a
//! finding is fixed or allowed exactly where the code is.

use crate::graph::Graph;
use crate::parse::ParsedFile;
use crate::scan::is_bin_path;
use crate::{Code, Diagnostic};

fn diag(code: Code, rel: &str, line: usize, col: usize, message: String) -> Diagnostic {
    Diagnostic {
        code,
        path: rel.to_string(),
        line,
        col,
        message,
        suppressed: None,
    }
}

fn path_suffix(graph: &Graph, files: &[ParsedFile], id: usize) -> String {
    let path = graph.root_path(files, id);
    match path.len() {
        0 => String::new(),
        1 => format!("sim root `{}`", path[0]),
        _ => format!("sim root `{}` via `{}`", path[0], path[1..].join("` → `")),
    }
}

/// Run every graph rule.
pub fn run_graph_rules(files: &[ParsedFile], graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for (id, &(f, i)) in graph.fns.iter().enumerate() {
        let file = &files[f];
        let item = &file.items[i];
        if item.in_test || !graph.is_reachable(id) {
            continue;
        }

        // ---- UF011/UF012: determinism reachability ----
        for fact in &item.facts.rng {
            out.push(diag(
                Code::UF011,
                &file.rel,
                fact.line,
                fact.col,
                format!(
                    "unseeded randomness `{}` reachable from {} — seed every RNG from the plan",
                    fact.what,
                    path_suffix(graph, files, id)
                ),
            ));
        }
        for (fact, chain, _method) in &item.facts.map_iters {
            if resolves_to_std_map(files, item, chain) {
                out.push(diag(
                    Code::UF012,
                    &file.rel,
                    fact.line,
                    fact.col,
                    format!(
                        "iteration over a std HashMap/HashSet (`{}`) reachable from {} — \
                             iteration order is per-process random; iterate a sorted or \
                             structure-ordered view",
                        fact.what,
                        path_suffix(graph, files, id)
                    ),
                ));
            }
        }

        // ---- UF031: panic sites on sim paths (bins may panic on startup) ----
        if !is_bin_path(&file.rel) {
            for fact in &item.facts.panics {
                out.push(diag(
                    Code::UF031,
                    &file.rel,
                    fact.line,
                    fact.col,
                    format!(
                        "panic site `{}` reachable from {} — a sim-path panic aborts the \
                         whole measured run",
                        fact.what,
                        path_suffix(graph, files, id)
                    ),
                ));
            }
        }
    }

    // ---- UF020: lock-order cycles ----
    for cycle in &graph.cycles {
        // Witness: the first edge inside the cycle, in sorted order.
        let witness = graph
            .lock_edges
            .iter()
            .find(|((a, b), _)| cycle.contains(a) && cycle.contains(b));
        if let Some(((from, to), w)) = witness {
            out.push(diag(
                Code::UF020,
                &w.file,
                w.line,
                1,
                format!(
                    "lock-order cycle {{{}}} — e.g. `{from}` is held while `{to}` is acquired \
                     in `{}`; pick one global order",
                    cycle.join(", "),
                    w.in_fn
                ),
            ));
        }
    }

    // ---- UF021: guard held across a may-block call ----
    for h in &graph.held_across_block {
        let item = graph.item(files, h.fn_id);
        out.push(diag(
            Code::UF021,
            &h.file,
            h.line,
            h.col,
            format!(
                "guard on `{}` held across blocking `{}` ({}) in `{}` — \
                 drop the guard before blocking",
                h.held.join("`, `"),
                h.callee,
                h.via,
                item.display
            ),
        ));
    }

    out
}

/// Whether an iteration receiver chain provably names a std
/// `HashMap`/`HashSet`: a `self.field` declared with that type, or a
/// local/param declared with it in this function.
fn resolves_to_std_map(
    files: &[ParsedFile],
    item: &crate::parse::FnItem,
    chain: &[String],
) -> bool {
    if chain.len() >= 2 && chain[0] == "self" {
        if let Some(ty) = &item.self_ty {
            return files.iter().any(|f| {
                f.map_fields
                    .iter()
                    .any(|mf| &mf.owner == ty && mf.field == chain[1])
            });
        }
        return false;
    }
    if chain.len() == 1 {
        return item.facts.local_maps.contains(&chain[0]);
    }
    false
}
