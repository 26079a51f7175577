//@ path: crates/core/src/checkpoint.rs
//@ expect: K003 7
//@ expect: K003 10
//@ expect: K003 14
//@ expect: K003 18
pub fn fork_node(node: &Node) -> Node {
    let Node { flc, slc, .. } = node;
    Node {
        flc: flc.clone(),
        stats: Default::default(),
        slc: slc.clone(),
    }
}
pub fn fork_pair((a, ..): &(u64, u64, u64)) -> u64 {
    *a
}
pub fn fork_update(node: &Node, flc: Flc) -> Node {
    Node { flc, ..node.clone() }
}
