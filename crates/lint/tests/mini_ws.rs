//! Call-graph construction over a hand-built three-crate workspace:
//! `engine` (sim roots) → `model` (free fns) → nothing, plus `hw`
//! (methods and an `Ftl` trait impl). Asserts the exact edge set, the
//! reachability partition and the root-path reconstruction that the
//! UF011/UF012/UF031 messages rely on.

use uflip_lint::config::LintConfig;
use uflip_lint::graph::{self, Graph};
use uflip_lint::lexer;
use uflip_lint::parse::{self, ParsedFile};
use uflip_lint::{scan_sources, Code};

const ENGINE: &str = "\
pub fn execute_plan() {
    uflip_model::step();
    let mut dev = uflip_hw::Device::new();
    dev.tick();
}

pub fn setup_only() {
    uflip_model::orphan();
}
";

const MODEL: &str = "\
pub fn step() -> u64 {
    helper() + 1
}

fn helper() -> u64 {
    7
}

pub fn orphan() -> u64 {
    41
}
";

const HW: &str = "\
pub struct Device {
    pub cycles: u64,
}

impl Device {
    pub fn new() -> Device {
        Device { cycles: 0 }
    }

    pub fn tick(&mut self) {
        self.cycles += 1;
    }
}

pub trait Ftl {
    fn map_page(&mut self);
}

impl Ftl for Device {
    fn map_page(&mut self) {
        self.tick();
    }
}
";

fn sources() -> Vec<(String, String)> {
    vec![
        ("crates/engine/src/lib.rs".to_string(), ENGINE.to_string()),
        ("crates/model/src/lib.rs".to_string(), MODEL.to_string()),
        ("crates/hw/src/lib.rs".to_string(), HW.to_string()),
    ]
}

fn build() -> (Vec<ParsedFile>, Graph) {
    let files: Vec<ParsedFile> = sources()
        .iter()
        .map(|(rel, src)| parse::parse_file(rel, &lexer::lex(src)))
        .collect();
    let graph = graph::build(&files, &LintConfig::default());
    (files, graph)
}

fn id_of(files: &[ParsedFile], g: &Graph, display: &str) -> usize {
    (0..g.fns.len())
        .find(|&i| g.item(files, i).display == display)
        .unwrap_or_else(|| panic!("no fn named {display}"))
}

fn callees<'a>(files: &'a [ParsedFile], g: &'a Graph, display: &str) -> Vec<String> {
    let id = id_of(files, g, display);
    let mut v: Vec<String> = g.edges[id]
        .iter()
        .map(|&c| g.item(files, c).display.clone())
        .collect();
    v.sort();
    v
}

#[test]
fn cross_crate_edges_resolve() {
    let (files, g) = build();
    assert_eq!(
        callees(&files, &g, "execute_plan"),
        vec!["Device::new", "Device::tick", "step"],
        "free-fn path, type-qualified path and method calls all resolve \
         across crate boundaries"
    );
    assert_eq!(callees(&files, &g, "step"), vec!["helper"]);
    assert_eq!(
        callees(&files, &g, "Device::map_page"),
        vec!["Device::tick"]
    );
    assert_eq!(callees(&files, &g, "helper"), Vec::<String>::new());
}

#[test]
fn roots_are_name_patterns_plus_ftl_impls() {
    let (files, g) = build();
    let mut roots: Vec<String> = g
        .roots
        .iter()
        .map(|&r| g.item(&files, r).display.clone())
        .collect();
    roots.sort();
    assert_eq!(
        roots,
        vec!["Device::map_page", "Ftl::map_page", "execute_plan"],
        "execute_plan matches the default pattern; the Ftl trait's method \
         stub and Device's impl of it are both roots; setup_only is neither"
    );
}

#[test]
fn reachability_partitions_the_workspace() {
    let (files, g) = build();
    let reachable = [
        "execute_plan",
        "step",
        "helper",
        "Device::new",
        "Device::tick",
        "Device::map_page",
    ];
    for name in reachable {
        assert!(
            g.is_reachable(id_of(&files, &g, name)),
            "{name} must be reachable from a sim root"
        );
    }
    for name in ["setup_only", "orphan"] {
        assert!(
            !g.is_reachable(id_of(&files, &g, name)),
            "{name} must not be reachable (setup_only is not a root, and \
             orphan is only called from it)"
        );
    }
}

#[test]
fn root_path_reconstructs_the_call_chain() {
    let (files, g) = build();
    let helper = id_of(&files, &g, "helper");
    assert_eq!(
        g.root_path(&files, helper),
        vec!["execute_plan", "step", "helper"],
        "UF011/UF012/UF031 messages print this chain; it must start at the root"
    );
}

#[test]
fn scan_sources_runs_graph_rules_across_crates() {
    // Put an unseeded RNG in the model crate, reachable only through
    // the engine crate's root: the finding must land in model's file.
    let mut srcs = sources();
    srcs[1].1 = srcs[1].1.replace("7\n", "rand::thread_rng().next_u64()\n");
    let result = scan_sources(&srcs, &LintConfig::default());
    let uf011: Vec<_> = result
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::UF011)
        .collect();
    assert_eq!(uf011.len(), 1, "{:?}", result.diagnostics);
    assert_eq!(uf011[0].path, "crates/model/src/lib.rs");
    assert!(
        uf011[0].message.contains("execute_plan") && uf011[0].message.contains("step"),
        "message shows the cross-crate chain: {}",
        uf011[0].message
    );
}
