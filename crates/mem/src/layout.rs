//! Data-structure layout in the simulated address space.
//!
//! Workload models allocate their shared data structures (matrices,
//! particle arrays, molecule arrays, grids) through [`ArrayLayout`], which
//! hands out page-aligned base addresses from a bump allocator so that
//! different structures never share a page and placement is deterministic —
//! the same property a real parallel allocator running once at program start
//! would give.

use crate::{Addr, Geometry};

/// A deterministic bump allocator for the simulated shared address space,
/// plus helpers for addressing array elements and struct fields.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{ArrayLayout, Geometry};
///
/// let mut layout = ArrayLayout::new(Geometry::paper());
/// // A 200x200 matrix of f64, stored column-major:
/// let a = layout.alloc("A", 200 * 200, 8);
/// let col_base = layout.element(a, 8, 3 * 200); // first element of column 3
/// assert_eq!(col_base.as_u64(), a.as_u64() + 3 * 200 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct ArrayLayout {
    geometry: Geometry,
    next: u64,
    regions: Vec<Region>,
}

/// One named allocation in the simulated address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name of the structure (for traces and debugging).
    pub name: &'static str,
    /// First byte of the region.
    pub base: Addr,
    /// Size in bytes.
    pub bytes: u64,
}

impl ArrayLayout {
    /// Creates an allocator that starts at the first page of the address
    /// space.
    pub fn new(geometry: Geometry) -> Self {
        ArrayLayout {
            geometry,
            // Skip page 0 so that "null" addresses never alias real data.
            next: geometry.page_bytes(),
            regions: Vec::new(),
        }
    }

    /// The geometry used for alignment.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Allocates a page-aligned region of `count` elements of
    /// `element_bytes` each and returns its base address.
    ///
    /// # Panics
    ///
    /// Panics if `count * element_bytes` overflows.
    pub fn alloc(&mut self, name: &'static str, count: u64, element_bytes: u64) -> Addr {
        let bytes = count
            .checked_mul(element_bytes)
            .expect("allocation size overflow");
        let base = Addr::new(self.next);
        let page = self.geometry.page_bytes();
        // Round the *end* up to a page so the next region starts on a fresh
        // page, as the paper's page-grained placement assumes.
        self.next += bytes.div_ceil(page).max(1) * page;
        self.regions.push(Region { name, base, bytes });
        base
    }

    /// Address of element `index` in an array of `element_bytes`-sized
    /// elements starting at `base`.
    #[inline]
    pub fn element(&self, base: Addr, element_bytes: u64, index: u64) -> Addr {
        Addr::new(base.as_u64() + index * element_bytes)
    }

    /// Address of byte `field_offset` inside element `index` of a struct
    /// array — how workloads address individual fields of e.g. a particle
    /// or molecule record.
    #[inline]
    pub fn field(&self, base: Addr, element_bytes: u64, index: u64, field_offset: u64) -> Addr {
        debug_assert!(field_offset < element_bytes, "field outside element");
        Addr::new(base.as_u64() + index * element_bytes + field_offset)
    }

    /// All regions allocated so far, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let g = Geometry::paper();
        let mut l = ArrayLayout::new(g);
        let a = l.alloc("a", 100, 8); // 800 B -> 1 page
        let b = l.alloc("b", 4096, 1); // exactly 1 page
        let c = l.alloc("c", 4097, 1); // 2 pages
        let d = l.alloc("d", 1, 1);
        for base in [a, b, c, d] {
            assert_eq!(base.as_u64() % g.page_bytes(), 0);
        }
        assert_eq!(b.as_u64() - a.as_u64(), 4096);
        assert_eq!(c.as_u64() - b.as_u64(), 4096);
        assert_eq!(d.as_u64() - c.as_u64(), 8192);
    }

    #[test]
    fn zero_sized_allocation_still_consumes_a_page() {
        let mut l = ArrayLayout::new(Geometry::paper());
        let a = l.alloc("a", 0, 8);
        let b = l.alloc("b", 1, 8);
        assert_eq!(b.as_u64() - a.as_u64(), 4096);
    }

    #[test]
    fn page_zero_is_never_allocated() {
        let mut l = ArrayLayout::new(Geometry::paper());
        let a = l.alloc("a", 8, 8);
        assert!(a.as_u64() >= 4096);
    }

    #[test]
    fn element_and_field_addressing() {
        let g = Geometry::paper();
        let mut l = ArrayLayout::new(g);
        let mols = l.alloc("molecules", 288, 672);
        let m7 = l.element(mols, 672, 7);
        assert_eq!(m7.as_u64(), mols.as_u64() + 7 * 672);
        let f = l.field(mols, 672, 7, 24);
        assert_eq!(f.as_u64(), m7.as_u64() + 24);
    }

    #[test]
    fn regions_are_recorded() {
        let mut l = ArrayLayout::new(Geometry::paper());
        l.alloc("x", 10, 4);
        l.alloc("y", 20, 4);
        let names: Vec<_> = l.regions().iter().map(|r| r.name).collect();
        assert_eq!(names, ["x", "y"]);
    }
}
