//! The benchmark's workloads: four pinned simulator grids, each cell with
//! its pclock anchor.
//!
//! Every grid is the paper's Figure-6 column set (baseline, I-det, D-det
//! and Seq, all at degree 1) over a set of applications on one machine.
//! The seed only draws the order in which a pass visits the cells, so every
//! cell's answer stays pinned whatever the seed.

use pfsim::experiment::figure6_schemes;
use pfsim::SystemConfig;
use pfsim_bench::{ExperimentSpec, Size};
use pfsim_mem::SplitMix64;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

/// One benchmark workload: a grid of applications × the four schemes.
#[derive(Debug)]
pub struct Grid {
    /// The workload name (`--workload`, and `BENCHMARK.json`).
    pub name: &'static str,
    /// Problem size of every trace.
    pub size: Size,
    /// Mesh width and height.
    pub mesh: (u16, u16),
    /// Finite direct-mapped SLC capacity in bytes; `None` is the paper's
    /// infinite SLC.
    pub slc_bytes: Option<u64>,
    /// Uncached trace generations timed for `setup_s`: about three
    /// seconds' worth, longer than the bursts of interference on a shared
    /// host, so that the median repeats from run to run.
    pub setup_reps: usize,
    /// Per application, the exec_cycles of its cells in [`figure6_schemes`]
    /// order.
    pub anchors: &'static [(App, [u64; 4])],
}

/// The four workloads, in the order the suite runs them.
pub const GRIDS: [Grid; 4] = [
    Grid {
        name: "fig6-default",
        size: Size::Default,
        mesh: (4, 4),
        slc_bytes: None,
        setup_reps: 101,
        anchors: &FIG6_DEFAULT,
    },
    Grid {
        name: "fig6-large",
        size: Size::Large,
        mesh: (4, 4),
        slc_bytes: None,
        setup_reps: 5,
        anchors: &FIG6_LARGE,
    },
    Grid {
        name: "families-8x8",
        size: Size::Default,
        mesh: (8, 8),
        slc_bytes: None,
        setup_reps: 301,
        anchors: &FAMILIES_8X8,
    },
    Grid {
        name: "fig6-finite16k",
        size: Size::Default,
        mesh: (4, 4),
        slc_bytes: Some(16 * 1024),
        setup_reps: 101,
        anchors: &FIG6_FINITE16K,
    },
];

const FIG6_DEFAULT: [(App, [u64; 4]); 6] = [
    (App::Mp3d, [407_446, 402_224, 394_148, 382_569]),
    (App::Cholesky, [587_482, 457_995, 428_996, 423_591]),
    (App::Water, [1_445_442, 1_074_880, 1_219_593, 1_196_783]),
    (App::Lu, [538_309, 533_485, 545_824, 535_796]),
    (App::Ocean, [158_243, 151_166, 151_116, 152_333]),
    (App::Pthor, [708_101, 710_047, 707_393, 746_104]),
];

const FIG6_LARGE: [(App, [u64; 4]); 6] = [
    (App::Mp3d, [717_350, 702_206, 641_547, 643_525]),
    (App::Cholesky, [7_020_083, 5_325_543, 5_183_382, 5_119_518]),
    (App::Water, [9_285_133, 6_519_720, 7_849_422, 7_720_540]),
    (App::Lu, [20_381_512, 20_852_944, 20_043_182, 20_115_565]),
    (App::Ocean, [1_451_079, 1_416_076, 1_404_729, 1_397_799]),
    (App::Pthor, [1_866_103, 1_869_189, 1_868_137, 1_973_770]),
];

/// The baseline column equals the `bigmesh.rs` anchors.
const FAMILIES_8X8: [(App, [u64; 4]); 3] = [
    (App::Chase, [146_176, 146_213, 148_465, 172_810]),
    (App::Mstride, [33_708, 27_932, 29_247, 52_855]),
    (App::Server, [643_002, 612_972, 619_290, 730_481]),
];

const FIG6_FINITE16K: [(App, [u64; 4]); 6] = [
    (App::Mp3d, [483_476, 476_788, 461_594, 465_231]),
    (App::Cholesky, [607_916, 472_843, 440_856, 433_718]),
    (App::Water, [1_661_102, 1_203_599, 1_457_327, 1_378_396]),
    (App::Lu, [858_197, 866_589, 819_440, 793_670]),
    (App::Ocean, [391_247, 369_728, 373_784, 379_530]),
    (App::Pthor, [813_874, 813_544, 813_874, 889_512]),
];

/// The workload called `name`.
pub fn grid(name: &str) -> Option<&'static Grid> {
    GRIDS.iter().find(|g| g.name == name)
}

/// One grid cell: an application under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The application (grid row).
    pub app: App,
    /// Index into [`figure6_schemes`] (grid column).
    pub scheme: usize,
}

impl Grid {
    /// Processors of the machine (one per mesh node).
    pub fn cpus(&self) -> u16 {
        self.mesh.0 * self.mesh.1
    }

    /// The machine a cell of column `scheme` simulates.
    pub fn config(&self, scheme: usize) -> SystemConfig {
        let mut cfg = SystemConfig::builder()
            .mesh_dims(self.mesh.0, self.mesh.1)
            .scheme(figure6_schemes()[scheme])
            .build();
        if let Some(bytes) = self.slc_bytes {
            cfg = cfg.with_finite_slc(bytes);
        }
        cfg
    }

    /// The grid's applications, in table order.
    pub fn apps(&self) -> impl Iterator<Item = App> + '_ {
        self.anchors.iter().map(|&(app, _)| app)
    }

    /// The pinned exec_cycles of `cell`.
    pub fn anchor(&self, cell: Cell) -> u64 {
        self.anchors
            .iter()
            .find(|(app, _)| *app == cell.app)
            .map(|(_, row)| row[cell.scheme])
            .expect("cells are drawn from the grid's own rows")
    }

    /// The index of `cell` in grid order: application-major, rows and
    /// columns in table order.
    pub fn position(&self, cell: Cell) -> usize {
        let row = self
            .apps()
            .position(|app| app == cell.app)
            .expect("cells are drawn from the grid's own rows");
        row * figure6_schemes().len() + cell.scheme
    }

    /// The sum of every cell's anchor.
    pub fn total_anchor(&self) -> u64 {
        self.anchors.iter().flat_map(|(_, row)| row).sum()
    }

    /// Every cell of the grid, application-major, rows and columns each in
    /// an order drawn from `rng`.
    fn cells(&self, rng: &mut SplitMix64) -> Vec<Cell> {
        let mut apps: Vec<App> = self.apps().collect();
        let mut schemes: Vec<usize> = (0..figure6_schemes().len()).collect();
        shuffle(&mut apps, rng);
        shuffle(&mut schemes, rng);
        apps.iter()
            .flat_map(|&app| schemes.iter().map(move |&scheme| Cell { app, scheme }))
            .collect()
    }

    /// The grid as one serial, quiet experiment with rows and columns in an
    /// order drawn from `rng`; cell `i` of the run is `cells[i]`.
    pub fn spec(&self, rng: &mut SplitMix64) -> (ExperimentSpec, Vec<Cell>) {
        let cells = self.cells(rng);
        let columns = figure6_schemes().len();
        let mut spec = ExperimentSpec::new(self.name)
            .size(self.size)
            .apps(cells.iter().step_by(columns).map(|c| c.app))
            .serial()
            .quiet();
        for c in &cells[..columns] {
            spec = spec.variant(scheme_label(c.scheme), self.config(c.scheme));
        }
        (spec, cells)
    }
}

/// The manifest label of column `scheme` ("baseline", "I-det(d=1)", ...).
pub fn scheme_label(scheme: usize) -> String {
    let s: Scheme = figure6_schemes()[scheme];
    s.to_string()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
