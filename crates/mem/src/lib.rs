//! Address arithmetic, page placement and reference vocabulary shared by
//! every component of the `pfsim` multiprocessor simulator.
//!
//! The paper's architecture operates on three granularities:
//!
//! * **bytes** — what load instructions address ([`Addr`]);
//! * **blocks** — the 32-byte cache/coherence unit ([`BlockAddr`]);
//! * **pages** — the 4 KB virtual-memory unit ([`PageAddr`]) that bounds
//!   prefetching and determines the home node of a block.
//!
//! [`Geometry`] converts between them and is configurable so experiments can
//! vary block and page sizes; [`Geometry::paper`] gives the configuration of
//! Table 1. [`PagePlacement`] implements the paper's round-robin allocation
//! of pages across nodes "based on the least significant bits of the virtual
//! page number".
//!
//! # Examples
//!
//! ```
//! use pfsim_mem::{Addr, Geometry, PagePlacement};
//!
//! let g = Geometry::paper();
//! let a = Addr::new(0x1234);
//! let block = g.block_of(a);
//! assert_eq!(g.block_base(block), Addr::new(0x1220));
//!
//! let placement = PagePlacement::round_robin(16);
//! let home = placement.home_of(g.page_of_block(block));
//! assert!(home.index() < 16);
//! ```

#![warn(missing_docs)]

mod addr;
mod geometry;
pub mod hash;
mod layout;
mod paged;
mod placement;
mod rng;

pub use addr::{Addr, BlockAddr, NodeId, PageAddr, Pc};
pub use geometry::Geometry;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use layout::ArrayLayout;
pub use paged::PagedMap;
pub use placement::PagePlacement;
pub use rng::{RandValue, SplitMix64};
