//! The wormhole-routed mesh.

use pfsim_engine::{Cycle, FifoServer};
use pfsim_mem::NodeId;

/// Mesh dimensions and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Nodes per row.
    pub width: u16,
    /// Nodes per column.
    pub height: u16,
    /// Router fall-through latency in network cycles (pclocks).
    pub fall_through: u64,
}

impl MeshConfig {
    /// The paper's network: a 4×4 mesh with a 3-cycle fall-through.
    pub fn paper() -> Self {
        MeshConfig::dims(4, 4)
    }

    /// A `width`×`height` mesh with the paper's router timing (scaling
    /// study; the paper itself stops at 4×4).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn dims(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        MeshConfig {
            width,
            height,
            fall_through: 3,
        }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> u16 {
        self.width * self.height
    }
}

/// Traffic statistics accumulated by the mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages injected (excluding node-local transfers, which bypass the
    /// network).
    pub messages: u64,
    /// Flits injected, summed over messages (each flit crosses every hop of
    /// its path).
    pub flits: u64,
    /// Total flit-hops: flits × hops, the bandwidth actually consumed.
    pub flit_hops: u64,
    /// Total queuing delay suffered at links, in pclocks (the contention
    /// signal).
    pub queuing_cycles: u64,
}

/// Direction of a unidirectional mesh link leaving a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }
}

/// The 4×4 wormhole mesh (see the [crate documentation](crate) for the
/// latency model).
///
/// # Examples
///
/// ```
/// use pfsim_engine::Cycle;
/// use pfsim_mem::NodeId;
/// use pfsim_network::{Mesh, MeshConfig};
///
/// let mut mesh = Mesh::new(MeshConfig::paper());
/// // Two same-time messages over the same first link: the second queues.
/// let a = mesh.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 10);
/// let b = mesh.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 10);
/// assert_eq!(a.as_u64(), 3 + 10);
/// assert_eq!(b.as_u64(), 10 + 3 + 10); // waited for 10 flits to drain
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    config: MeshConfig,
    /// One `FifoServer` per (router, direction).
    links: Vec<FifoServer>,
    /// Per-node loopback ordering point: node-internal transfers are free
    /// but must not overtake earlier node-internal transfers, or the
    /// in-order point-to-point delivery the coherence protocol relies on
    /// would break when a node is its own home.
    loopback: Vec<Cycle>,
    /// Flattened dimension-ordered routes: the link indices for the route
    /// from `a` to `b` are `route_links[route_offsets[a*nodes+b]..
    /// route_offsets[a*nodes+b+1]]`. Routes are static, so `send` walks a
    /// precomputed link list instead of re-deriving coordinates per hop.
    route_offsets: Vec<u32>,
    route_links: Vec<u32>,
    stats: NetStats,
}

impl Mesh {
    /// Creates an idle mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(config: MeshConfig) -> Self {
        assert!(
            config.width > 0 && config.height > 0,
            "mesh dimensions must be nonzero"
        );
        let nodes = config.nodes() as usize;
        let mut route_offsets = Vec::with_capacity(nodes * nodes + 1);
        let mut route_links = Vec::new();
        route_offsets.push(0u32);
        for from in 0..nodes as u16 {
            for to in 0..nodes as u16 {
                let (mut x, mut y) = (from % config.width, from / config.width);
                let (tx, ty) = (to % config.width, to / config.width);
                while (x, y) != (tx, ty) {
                    let (dir, nx, ny) = if x < tx {
                        (Dir::East, x + 1, y)
                    } else if x > tx {
                        (Dir::West, x - 1, y)
                    } else if y < ty {
                        (Dir::South, x, y + 1)
                    } else {
                        (Dir::North, x, y - 1)
                    };
                    let node = u32::from(y * config.width + x);
                    route_links.push(node * 4 + dir.index() as u32);
                    x = nx;
                    y = ny;
                }
                route_offsets.push(route_links.len() as u32);
            }
        }
        Mesh {
            config,
            links: vec![FifoServer::new(); nodes * 4],
            loopback: vec![Cycle::ZERO; nodes],
            route_offsets,
            route_links,
            stats: NetStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> MeshConfig {
        self.config
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Channel-utilization summary over every unidirectional link:
    /// `(links, busy_total, busy_max)` where `busy_total` sums each
    /// link's occupied pclocks and `busy_max` is the busiest single
    /// link (the hot-spot signal). Observability tap; links that cannot
    /// exist (mesh edges) are never busy and only dilute the mean, so
    /// all `4·nodes` slots are counted uniformly.
    pub fn link_utilization(&self) -> (usize, u64, u64) {
        let busy_total = self.links.iter().map(|l| l.busy_cycles()).sum();
        let busy_max = self
            .links
            .iter()
            .map(|l| l.busy_cycles())
            .max()
            .unwrap_or(0);
        (self.links.len(), busy_total, busy_max)
    }

    fn coords(&self, node: NodeId) -> (u16, u16) {
        let i = node.as_u16();
        (i % self.config.width, i / self.config.width)
    }

    /// Number of hops on the dimension-ordered route from `from` to `to`.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u64 {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        u64::from(fx.abs_diff(tx)) + u64::from(fy.abs_diff(ty))
    }

    /// Injects a message of `flits` flits at time `now` and returns its
    /// delivery time at `to`, reserving link bandwidth along the
    /// dimension-ordered route.
    ///
    /// A message to the local node is delivered immediately (node-internal
    /// transfers do not use the network).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or either node is outside the mesh.
    pub fn send(&mut self, now: Cycle, from: NodeId, to: NodeId, flits: u64) -> Cycle {
        assert!(flits > 0, "a message needs at least one flit");
        assert!(
            from.as_u16() < self.config.nodes() && to.as_u16() < self.config.nodes(),
            "node outside the mesh"
        );
        if from == to {
            // Node-internal transfer: no network latency, but deliveries
            // stay in send order (see the `loopback` field).
            let at = now.max(self.loopback[from.index()]);
            self.loopback[from.index()] = at;
            return at;
        }

        let fall_through = self.config.fall_through;
        let r = from.index() * self.config.nodes() as usize + to.index();
        let route =
            &self.route_links[self.route_offsets[r] as usize..self.route_offsets[r + 1] as usize];
        let mut head = now;

        for &link in route {
            let (start, _done) = self.links[link as usize].serve_timed(head, flits);
            self.stats.queuing_cycles += start - head;
            // The head flit reaches the next router after the fall-through;
            // the link stays busy while the body streams behind it.
            head = start + fall_through;
        }

        self.stats.messages += 1;
        self.stats.flits += flits;
        self.stats.flit_hops += flits * route.len() as u64;
        // The tail arrives `flits` cycles after the head starts draining
        // into the destination.
        head + flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_mem::SplitMix64;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::paper())
    }

    #[test]
    fn local_delivery_is_free() {
        let mut m = mesh();
        assert_eq!(
            m.send(Cycle::new(5), NodeId::new(3), NodeId::new(3), 10),
            Cycle::new(5)
        );
        assert_eq!(m.stats().messages, 0);
    }

    #[test]
    fn local_deliveries_never_reorder() {
        // A message "sent" for a future time (e.g. after a memory read)
        // must not be overtaken by a later-sent local message with an
        // earlier nominal time.
        let mut m = mesh();
        let first = m.send(Cycle::new(55), NodeId::new(0), NodeId::new(0), 10);
        let second = m.send(Cycle::new(47), NodeId::new(0), NodeId::new(0), 2);
        assert_eq!(first, Cycle::new(55));
        assert_eq!(second, Cycle::new(55), "local send order must be preserved");
        // Other nodes' loopbacks are independent.
        assert_eq!(
            m.send(Cycle::new(1), NodeId::new(2), NodeId::new(2), 2),
            Cycle::new(1)
        );
    }

    #[test]
    fn uncontended_latency_is_hops_times_fallthrough_plus_flits() {
        let mut m = mesh();
        // Node 0 (0,0) to node 5 (1,1): 2 hops.
        let t = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(5), 10);
        assert_eq!(t.as_u64(), 2 * 3 + 10);
        // Corner to corner: 6 hops (fresh mesh so the first message's link
        // reservations do not interfere).
        let mut m = mesh();
        let t = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 2);
        assert_eq!(t.as_u64(), 6 * 3 + 2);
    }

    #[test]
    fn xy_routing_hop_counts() {
        let m = mesh();
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(3)), 3);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(12)), 3);
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(15)), 6);
        assert_eq!(m.hops(NodeId::new(9), NodeId::new(6)), 2);
        assert_eq!(m.hops(NodeId::new(7), NodeId::new(7)), 0);
    }

    #[test]
    fn shared_link_serializes_messages() {
        let mut m = mesh();
        let a = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 8);
        let b = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 8);
        assert_eq!(a.as_u64(), 3 + 8);
        assert_eq!(b.as_u64(), 8 + 3 + 8);
        assert_eq!(m.stats().queuing_cycles, 8);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut m = mesh();
        let a = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 8);
        let b = m.send(Cycle::ZERO, NodeId::new(4), NodeId::new(5), 8);
        assert_eq!(a, b);
        assert_eq!(m.stats().queuing_cycles, 0);
    }

    #[test]
    fn opposite_directions_use_separate_links() {
        let mut m = mesh();
        let a = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 8);
        let b = m.send(Cycle::ZERO, NodeId::new(1), NodeId::new(0), 8);
        assert_eq!(a, b, "east and west links are independent");
    }

    #[test]
    fn stats_accumulate_flit_hops() {
        let mut m = mesh();
        m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 10); // 6 hops
        m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 2); // 1 hop
        let s = m.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.flits, 12);
        assert_eq!(s.flit_hops, 62);
    }

    #[test]
    fn wormhole_pipelining_beats_store_and_forward() {
        let mut m = mesh();
        // 6 hops with a 10-flit message: wormhole = 6*3 + 10 = 28, while
        // store-and-forward would be 6*(3+10) = 78.
        let t = m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 10);
        assert_eq!(t.as_u64(), 28);
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn rejects_out_of_range_nodes() {
        let mut m = mesh();
        m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(16), 2);
    }

    /// Delivery time always ≥ the uncontended wormhole latency, and
    /// messages on the same route in time order deliver in order (seeded
    /// cases).
    #[test]
    fn latency_bounds_and_fifo() {
        let mut rng = SplitMix64::seed_from_u64(0x3e54);
        for _case in 0..64 {
            let len = rng.random_range(1usize..60);
            let pairs: Vec<(u16, u16, u64)> = (0..len)
                .map(|_| {
                    (
                        rng.random_range(0u16..16),
                        rng.random_range(0u16..16),
                        rng.random_range(1u64..12),
                    )
                })
                .collect();
            let mut m = mesh();
            let mut now = Cycle::ZERO;
            let mut last_delivery: std::collections::HashMap<(u16, u16), Cycle> =
                std::collections::HashMap::new();
            for (from, to, flits) in pairs {
                if from == to {
                    continue;
                }
                let t = m.send(now, NodeId::new(from), NodeId::new(to), flits);
                let min = m.hops(NodeId::new(from), NodeId::new(to)) * 3 + flits;
                assert!(t.as_u64() >= now.as_u64() + min);
                if let Some(&prev) = last_delivery.get(&(from, to)) {
                    assert!(t >= prev, "same-route messages reordered");
                }
                last_delivery.insert((from, to), t);
                now += 1; // sends occur in nondecreasing time order
            }
        }
    }
}
