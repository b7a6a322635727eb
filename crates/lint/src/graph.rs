//! The workspace call graph, lock-order graph and reachability layer.
//!
//! Built from the per-file [`crate::parse::ParsedFile`]s, this module
//! resolves call sites to workspace functions *conservatively* — a
//! method call resolves to every workspace method of that name unless
//! the receiver is provably `self` on a known type — so the graph
//! over-approximates: reachability and held-lock propagation can claim
//! too much, never too little. Every container here is a `BTreeMap` /
//! `BTreeSet` or a sorted `Vec`, so graph artifacts and diagnostics
//! come out in a stable order (the analyzer holds itself to UF012).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::json_string;
use crate::parse::{is_std_blocking, CallTarget, Event, FnItem, LockKind, ParsedFile};

/// Index of a function in the flattened workspace list.
pub type FnId = usize;

/// Where one lock-order edge was observed.
#[derive(Debug, Clone)]
pub struct EdgeWitness {
    /// File of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: usize,
    /// Display name of the function holding the outer lock.
    pub in_fn: String,
}

/// A guard held across a call that may block (UF021 raw finding).
#[derive(Debug, Clone)]
pub struct HeldAcrossBlock {
    /// File of the blocking call.
    pub file: String,
    /// Function containing the call.
    pub fn_id: FnId,
    /// Line of the blocking call.
    pub line: usize,
    /// Column of the blocking call.
    pub col: usize,
    /// The blocking callee's name.
    pub callee: String,
    /// Lock ids held at the call.
    pub held: Vec<String>,
    /// Why the callee may block (`"std"` or the workspace path).
    pub via: String,
}

/// The assembled workspace graph.
#[derive(Debug)]
pub struct Graph {
    /// `(file index, item index)` per function id, in file/item order.
    pub fns: Vec<(usize, usize)>,
    /// Call edges, sorted and deduplicated per caller.
    pub edges: Vec<Vec<FnId>>,
    /// Declared sim roots.
    pub roots: Vec<FnId>,
    /// BFS parent towards a root; a root is its own parent.
    pub parent: Vec<Option<FnId>>,
    /// Transitively-may-block flag per function.
    pub may_block: Vec<bool>,
    /// Why a may-block function blocks (first observed cause).
    pub block_cause: Vec<Option<String>>,
    /// Locks each function may acquire, transitively.
    pub trans_locks: Vec<BTreeSet<String>>,
    /// Every lock id seen, with its kind.
    pub locks: BTreeMap<String, LockKind>,
    /// Lock-order edges `outer → inner`, with one witness each.
    pub lock_edges: BTreeMap<(String, String), EdgeWitness>,
    /// Cycles in the lock-order graph (each a sorted id list).
    pub cycles: Vec<Vec<String>>,
    /// Guards held across may-block calls.
    pub held_across_block: Vec<HeldAcrossBlock>,
}

impl Graph {
    /// The function item behind an id.
    pub fn item<'a>(&self, files: &'a [ParsedFile], id: FnId) -> &'a FnItem {
        let (f, i) = self.fns[id];
        &files[f].items[i]
    }

    /// Whether `id` is reachable from a sim root.
    pub fn is_reachable(&self, id: FnId) -> bool {
        self.parent[id].is_some()
    }

    /// Display-name path from a root to `id` (root first), capped.
    pub fn root_path(&self, files: &[ParsedFile], id: FnId) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = id;
        let mut hops = 0;
        while let Some(p) = self.parent[cur] {
            path.push(self.item(files, cur).display.clone());
            if p == cur || hops > 12 {
                break;
            }
            cur = p;
            hops += 1;
        }
        path.reverse();
        path
    }
}

/// Symbol tables for call resolution.
struct Symbols {
    by_method: BTreeMap<String, Vec<FnId>>,
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    by_trait_method: BTreeMap<(String, String), Vec<FnId>>,
    by_free: BTreeMap<String, Vec<FnId>>,
    by_macro: BTreeMap<String, Vec<FnId>>,
    /// `(owner, field) → kind` for lock-typed struct fields/statics.
    lock_fields: BTreeMap<(String, String), LockKind>,
    /// `field → owners` reverse index.
    lock_field_owners: BTreeMap<String, Vec<String>>,
    /// Any workspace fn of this name returns a lock guard.
    guard_fns: BTreeSet<String>,
}

fn build_symbols(files: &[ParsedFile], fns: &[(usize, usize)]) -> Symbols {
    let mut s = Symbols {
        by_method: BTreeMap::new(),
        by_type_method: BTreeMap::new(),
        by_trait_method: BTreeMap::new(),
        by_free: BTreeMap::new(),
        by_macro: BTreeMap::new(),
        lock_fields: BTreeMap::new(),
        lock_field_owners: BTreeMap::new(),
        guard_fns: BTreeSet::new(),
    };
    for (id, &(f, i)) in fns.iter().enumerate() {
        let item = &files[f].items[i];
        if item.in_test {
            continue;
        }
        if item.is_macro {
            s.by_macro.entry(item.name.clone()).or_default().push(id);
            continue;
        }
        if item.returns_guard {
            s.guard_fns.insert(item.name.clone());
        }
        match (&item.self_ty, &item.trait_name) {
            (Some(ty), tr) => {
                s.by_method.entry(item.name.clone()).or_default().push(id);
                s.by_type_method
                    .entry((ty.clone(), item.name.clone()))
                    .or_default()
                    .push(id);
                if let Some(tr) = tr {
                    s.by_trait_method
                        .entry((tr.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
            (None, Some(tr)) => {
                // Trait default method.
                s.by_method.entry(item.name.clone()).or_default().push(id);
                s.by_trait_method
                    .entry((tr.clone(), item.name.clone()))
                    .or_default()
                    .push(id);
            }
            (None, None) => {
                s.by_free.entry(item.name.clone()).or_default().push(id);
            }
        }
    }
    for file in files {
        for lf in &file.lock_fields {
            s.lock_fields
                .insert((lf.owner.clone(), lf.field.clone()), lf.kind);
            let owners = s.lock_field_owners.entry(lf.field.clone()).or_default();
            if !owners.contains(&lf.owner) {
                owners.push(lf.owner.clone());
            }
        }
    }
    s
}

/// Resolve a call event to candidate workspace functions.
fn resolve_call(sym: &Symbols, caller: &FnItem, target: &CallTarget, recv: &[String]) -> Vec<FnId> {
    match target {
        CallTarget::Macro(name) => sym.by_macro.get(name).cloned().unwrap_or_default(),
        CallTarget::Method(name) => {
            // `self.m()` on a known type resolves precisely; any other
            // receiver resolves to every workspace method of that name.
            if recv == ["self"] {
                if let Some(ty) = &caller.self_ty {
                    if let Some(ids) = sym.by_type_method.get(&(ty.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
                if let Some(tr) = &caller.trait_name {
                    if let Some(ids) = sym.by_trait_method.get(&(tr.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
            }
            sym.by_method.get(name).cloned().unwrap_or_default()
        }
        CallTarget::Bare(name) => sym.by_free.get(name).cloned().unwrap_or_default(),
        CallTarget::Path(segs) => {
            let name = segs.last().cloned().unwrap_or_default();
            if segs.len() >= 2 {
                let mut qualifier = segs[segs.len() - 2].clone();
                if qualifier == "Self" {
                    if let Some(ty) = &caller.self_ty {
                        qualifier = ty.clone();
                    }
                }
                if let Some(ids) = sym.by_type_method.get(&(qualifier.clone(), name.clone())) {
                    return ids.clone();
                }
                if let Some(ids) = sym.by_trait_method.get(&(qualifier, name.clone())) {
                    return ids.clone();
                }
            }
            sym.by_free.get(&name).cloned().unwrap_or_default()
        }
    }
}

/// Resolve a receiver chain to a lock identity. `self.lane` resolves via
/// the enclosing type's fields; a bare name via lock-typed params and
/// statics; otherwise a field name declared by exactly one type wins.
fn resolve_lock(sym: &Symbols, caller: &FnItem, chain: &[String]) -> Option<(String, LockKind)> {
    let last = chain.last()?;
    if chain.len() >= 2 && chain[0] == "self" {
        if let Some(ty) = &caller.self_ty {
            if let Some(kind) = sym.lock_fields.get(&(ty.clone(), chain[1].clone())) {
                return Some((format!("{ty}.{}", chain[1]), *kind));
            }
        }
    }
    if chain.len() == 1 {
        if let Some((_, kind)) = caller.facts.param_locks.iter().find(|(n, _)| n == last) {
            return Some((format!("{}.{last}", caller.display), *kind));
        }
        if let Some(kind) = sym.lock_fields.get(&("static".to_string(), last.clone())) {
            return Some((format!("static.{last}"), *kind));
        }
    }
    if let Some(owners) = sym.lock_field_owners.get(last) {
        if owners.len() == 1 {
            if let Some(&kind) = sym.lock_fields.get(&(owners[0].clone(), last.clone())) {
                return Some((format!("{}.{last}", owners[0]), kind));
            }
        }
    }
    None
}

/// Whether a call event is a std blocking primitive for UF021.
fn std_blocking_name(target: &CallTarget, no_args: bool) -> Option<&str> {
    let name = target.name();
    if !is_std_blocking(name) {
        return None;
    }
    // `join` doubles as slice/string join, which takes a separator;
    // only the no-arg thread/worker form blocks.
    if name == "join" && !no_args {
        return None;
    }
    // Macros never block.
    if matches!(target, CallTarget::Macro(_)) {
        return None;
    }
    Some(match name {
        "recv" => "recv",
        "recv_timeout" => "recv_timeout",
        "join" => "join",
        "sleep" => "sleep",
        "park" => "park",
        _ => "park_timeout",
    })
}

/// A guard alive during the body walk.
struct Held {
    id: String,
    depth: usize,
    bound: bool,
    binding: Option<String>,
}

/// Build the full graph for a parsed workspace.
pub fn build(files: &[ParsedFile], cfg: &LintConfig) -> Graph {
    let mut fns = Vec::new();
    for (f, file) in files.iter().enumerate() {
        for i in 0..file.items.len() {
            fns.push((f, i));
        }
    }
    let sym = build_symbols(files, &fns);
    let n = fns.len();

    // Call edges.
    let mut edges: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (id, &(f, i)) in fns.iter().enumerate() {
        let item = &files[f].items[i];
        if item.in_test {
            continue;
        }
        let mut outs = BTreeSet::new();
        for ev in &item.facts.events {
            if let Event::Call { target, recv, .. } = ev {
                for callee in resolve_call(&sym, item, target, recv) {
                    if callee != id {
                        outs.insert(callee);
                    }
                }
            }
        }
        edges[id] = outs.into_iter().collect();
    }

    // Roots: configured fn-name patterns plus every impl (and default
    // method) of a root trait. Test code is never a root.
    let mut roots = Vec::new();
    for (id, &(f, i)) in fns.iter().enumerate() {
        let item = &files[f].items[i];
        if item.in_test || item.is_macro {
            continue;
        }
        let by_name = cfg.is_root_fn(&item.name);
        let by_trait = item
            .trait_name
            .as_deref()
            .is_some_and(|t| cfg.is_root_trait(t));
        if by_name || by_trait {
            roots.push(id);
        }
    }

    // BFS reachability with parent pointers.
    let mut parent: Vec<Option<FnId>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &r in &roots {
        if parent[r].is_none() {
            parent[r] = Some(r);
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if parent[v].is_none() {
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    // Direct lock sets and direct blocking causes.
    let mut direct_locks: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut block_cause: Vec<Option<String>> = vec![None; n];
    for (id, &(f, i)) in fns.iter().enumerate() {
        let item = &files[f].items[i];
        if item.in_test {
            continue;
        }
        for ev in &item.facts.events {
            match ev {
                Event::Acquire { recv, .. } => {
                    if let Some((lock_id, _)) = resolve_lock(&sym, item, recv) {
                        direct_locks[id].insert(lock_id);
                    }
                }
                Event::Call {
                    target,
                    recv,
                    no_args,
                    ..
                } => {
                    if block_cause[id].is_none() {
                        if let Some(what) = std_blocking_name(target, *no_args) {
                            block_cause[id] = Some(format!("std `{what}`"));
                        }
                    }
                    // A workspace guard-returning helper is an acquisition.
                    if sym.guard_fns.contains(target.name()) {
                        let callees = resolve_call(&sym, item, target, recv);
                        if callees
                            .iter()
                            .any(|&c| files[fns[c].0].items[fns[c].1].returns_guard)
                        {
                            if let Some((lock_id, _)) = resolve_lock(&sym, item, recv) {
                                direct_locks[id].insert(lock_id);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Fixpoint: propagate lock sets and may-block along call edges.
    let mut trans_locks = direct_locks.clone();
    let mut may_block: Vec<bool> = block_cause.iter().map(Option::is_some).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            for &callee in &edges[id] {
                if may_block[callee] && !may_block[id] {
                    may_block[id] = true;
                    block_cause[id] = Some(format!(
                        "call into `{}`",
                        files[fns[callee].0].items[fns[callee].1].display
                    ));
                    changed = true;
                }
                if !trans_locks[callee].is_empty() {
                    let add: Vec<String> = trans_locks[callee]
                        .iter()
                        .filter(|l| !trans_locks[id].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        trans_locks[id].extend(add);
                        changed = true;
                    }
                }
            }
        }
    }

    // Guard-lifetime walk: lock-order edges and held-across-block sites.
    let mut locks: BTreeMap<String, LockKind> = BTreeMap::new();
    let mut lock_edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    let mut held_across_block: Vec<HeldAcrossBlock> = Vec::new();
    for (id, &(f, i)) in fns.iter().enumerate() {
        let item = &files[f].items[i];
        if item.in_test {
            continue;
        }
        let rel = &files[f].rel;
        let mut held: Vec<Held> = Vec::new();
        let acquire = |held: &mut Vec<Held>,
                       locks: &mut BTreeMap<String, LockKind>,
                       lock_edges: &mut BTreeMap<(String, String), EdgeWitness>,
                       lock_id: String,
                       kind: LockKind,
                       depth: usize,
                       bound: bool,
                       binding: Option<String>,
                       line: usize| {
            locks.insert(lock_id.clone(), kind);
            for h in held.iter() {
                lock_edges
                    .entry((h.id.clone(), lock_id.clone()))
                    .or_insert_with(|| EdgeWitness {
                        file: rel.clone(),
                        line,
                        in_fn: item.display.clone(),
                    });
            }
            held.push(Held {
                id: lock_id,
                depth,
                bound,
                binding,
            });
        };
        for ev in &item.facts.events {
            match ev {
                Event::Open { .. } => {}
                Event::Close { depth } => held.retain(|h| h.depth <= *depth),
                Event::Semi { depth } => held.retain(|h| h.bound || h.depth < *depth),
                Event::DropVar { name } => {
                    held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                }
                Event::Acquire {
                    recv,
                    bound,
                    binding,
                    depth,
                    line,
                    ..
                } => {
                    if let Some((lock_id, kind)) = resolve_lock(&sym, item, recv) {
                        acquire(
                            &mut held,
                            &mut locks,
                            &mut lock_edges,
                            lock_id,
                            kind,
                            *depth,
                            *bound,
                            binding.clone(),
                            *line,
                        );
                    }
                }
                Event::Call {
                    target,
                    recv,
                    bound,
                    no_args,
                    depth,
                    line,
                    col,
                } => {
                    // Name-collision resolution back into the current
                    // function (`util.snapshot()` inside `Metrics::
                    // snapshot`) would manufacture self-deadlocks; drop
                    // it, matching the call-edge builder.
                    let mut callees = resolve_call(&sym, item, target, recv);
                    callees.retain(|&c| c != id);
                    // Guard-returning helper → acquisition at this site.
                    let returns_guard = callees
                        .iter()
                        .any(|&c| files[fns[c].0].items[fns[c].1].returns_guard);
                    if returns_guard {
                        if let Some((lock_id, kind)) = resolve_lock(&sym, item, recv) {
                            acquire(
                                &mut held,
                                &mut locks,
                                &mut lock_edges,
                                lock_id,
                                kind,
                                *depth,
                                *bound,
                                None,
                                *line,
                            );
                            continue;
                        }
                    }
                    if held.is_empty() {
                        continue;
                    }
                    // Std blocking call with a guard live.
                    if let Some(what) = std_blocking_name(target, *no_args) {
                        held_across_block.push(HeldAcrossBlock {
                            file: rel.clone(),
                            fn_id: id,
                            line: *line,
                            col: *col,
                            callee: what.to_string(),
                            held: held.iter().map(|h| h.id.clone()).collect(),
                            via: "std".to_string(),
                        });
                    }
                    for &callee in &callees {
                        let callee_item = &files[fns[callee].0].items[fns[callee].1];
                        // Workspace callee that may block.
                        if may_block[callee] {
                            held_across_block.push(HeldAcrossBlock {
                                file: rel.clone(),
                                fn_id: id,
                                line: *line,
                                col: *col,
                                callee: callee_item.display.clone(),
                                held: held.iter().map(|h| h.id.clone()).collect(),
                                via: block_cause[callee]
                                    .clone()
                                    .unwrap_or_else(|| "may block".to_string()),
                            });
                        }
                        // Locks the callee may take while ours are held.
                        for inner in &trans_locks[callee] {
                            for h in &held {
                                lock_edges
                                    .entry((h.id.clone(), inner.clone()))
                                    .or_insert_with(|| EdgeWitness {
                                        file: rel.clone(),
                                        line: *line,
                                        in_fn: item.display.clone(),
                                    });
                            }
                        }
                    }
                }
            }
        }
    }
    // The same site can resolve to several may-block callees; one report
    // per (file, line) keeps the output readable.
    held_across_block.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.callee).cmp(&(&b.file, b.line, b.col, &b.callee))
    });
    held_across_block.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.col == b.col);

    let cycles = find_cycles(&lock_edges);

    Graph {
        fns,
        edges,
        roots,
        parent,
        may_block,
        block_cause,
        trans_locks,
        locks,
        lock_edges,
        cycles,
        held_across_block,
    }
}

/// Cycles in the lock-order digraph: strongly connected components with
/// more than one node, plus self-loops. Each cycle is its sorted node
/// list; the result is sorted for stable reporting.
fn find_cycles(edges: &BTreeMap<(String, String), EdgeWitness>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
        adj.entry(from).or_default().push(to);
    }
    let index_of: BTreeMap<&String, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&String> = nodes.iter().copied().collect();
    let n = names.len();
    let adj_idx: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            adj.get(*name)
                .map(|ts| ts.iter().map(|t| index_of[*t]).collect())
                .unwrap_or_default()
        })
        .collect();

    // Iterative Tarjan SCC.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj_idx[v].len() {
                let w = adj_idx[v][ci];
                if let Some(top) = call.last_mut() {
                    top.1 = ci + 1;
                }
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    let mut cycles: Vec<Vec<String>> = Vec::new();
    for comp in sccs {
        let is_cycle = comp.len() > 1
            || (comp.len() == 1 && {
                let name = names[comp[0]];
                edges.contains_key(&(name.clone(), name.clone()))
            });
        if is_cycle {
            let mut c: Vec<String> = comp.iter().map(|&i| names[i].clone()).collect();
            c.sort();
            cycles.push(c);
        }
    }
    cycles.sort();
    cycles
}

/// Render `callgraph.json`: every function, its edges, root/reachable
/// flags. Stable ordering throughout.
pub fn callgraph_json(files: &[ParsedFile], g: &Graph) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"roots\": [");
    let mut root_names: Vec<&str> = g
        .roots
        .iter()
        .map(|&r| g.item(files, r).qual.as_str())
        .collect();
    root_names.sort_unstable();
    for (i, r) in root_names.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json_string(&mut s, r);
    }
    s.push_str("],\n  \"functions\": [");
    let mut order: Vec<FnId> = (0..g.fns.len()).collect();
    order.sort_by_key(|&id| &g.item(files, id).qual);
    let mut first = true;
    for id in order {
        let item = g.item(files, id);
        if item.in_test {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str("\n    {\"id\": ");
        json_string(&mut s, &item.qual);
        s.push_str(", \"file\": ");
        json_string(&mut s, &files[g.fns[id].0].rel);
        s.push_str(", \"line\": ");
        s.push_str(&item.line.to_string());
        s.push_str(", \"reachable\": ");
        s.push_str(if g.is_reachable(id) { "true" } else { "false" });
        s.push_str(", \"may_block\": ");
        s.push_str(if g.may_block[id] { "true" } else { "false" });
        s.push_str(", \"calls\": [");
        let mut callees: Vec<&str> = g.edges[id]
            .iter()
            .map(|&c| g.item(files, c).qual.as_str())
            .collect();
        callees.sort_unstable();
        for (i, c) in callees.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            json_string(&mut s, c);
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Render `lock_order.json`: lock nodes, ordering edges with witnesses,
/// and any cycles (an empty `cycles` array is the gated invariant).
pub fn lock_order_json(g: &Graph) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"locks\": [");
    for (i, (id, kind)) in g.locks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"id\": ");
        json_string(&mut s, id);
        s.push_str(", \"kind\": \"");
        s.push_str(match kind {
            LockKind::Mutex => "mutex",
            LockKind::RwLock => "rwlock",
        });
        s.push_str("\"}");
    }
    s.push_str("\n  ],\n  \"edges\": [");
    for (i, ((from, to), w)) in g.lock_edges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"from\": ");
        json_string(&mut s, from);
        s.push_str(", \"to\": ");
        json_string(&mut s, to);
        s.push_str(", \"file\": ");
        json_string(&mut s, &w.file);
        s.push_str(", \"line\": ");
        s.push_str(&w.line.to_string());
        s.push_str(", \"fn\": ");
        json_string(&mut s, &w.in_fn);
        s.push('}');
    }
    s.push_str("\n  ],\n  \"cycles\": [");
    for (i, cycle) in g.cycles.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('[');
        for (j, id) in cycle.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            json_string(&mut s, id);
        }
        s.push(']');
    }
    s.push_str("]\n}\n");
    s
}
