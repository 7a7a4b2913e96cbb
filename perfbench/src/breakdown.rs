//! Self-time tree of a traced run.
//!
//! Every node is a span the benchmark recorded around a call into one
//! layer's public function, or a span the program already emits. A node's
//! self time is its duration minus the part its children cover. Nodes run
//! on fleet workers carry busy time summed across workers; their
//! wall-clock equivalent is busy time over the worker count. Self time of
//! nodes that belong to no layer (the root and the benchmark's own glue)
//! is reported as "unattributed".

use std::collections::BTreeMap;

/// One span in the tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Layer-qualified name, e.g. `core.sites.plan`.
    pub name: String,
    /// The public call (or program span) the node times.
    pub call: String,
    /// Wall-clock time, for spans on the caller's thread.
    pub wall_ns: Option<u64>,
    /// Busy time summed across workers.
    pub busy_ns: u64,
    /// Workers the busy time is spread over (1 for serial spans).
    pub workers: usize,
    /// Whether the node's self time belongs to a named layer.
    pub layer: bool,
    /// Child spans.
    pub children: Vec<Node>,
}

impl Node {
    /// A serial span measured on the caller's thread.
    pub fn wall(name: &str, call: &str, ns: u64) -> Self {
        Node {
            name: name.to_string(),
            call: call.to_string(),
            wall_ns: Some(ns),
            busy_ns: ns,
            workers: 1,
            layer: true,
            children: Vec::new(),
        }
    }

    /// A span run on fleet workers: busy time summed across `workers`.
    pub fn busy(name: &str, call: &str, ns: u64, workers: usize) -> Self {
        Node {
            wall_ns: None,
            busy_ns: ns,
            workers: workers.max(1),
            ..Node::wall(name, call, ns)
        }
    }

    /// Marks the node's self time as unattributed glue.
    pub fn glue(mut self) -> Self {
        self.layer = false;
        self
    }

    /// Adds a child span.
    pub fn child(mut self, child: Node) -> Self {
        self.children.push(child);
        self
    }

    /// Wall-clock equivalent of the node's duration.
    pub fn wall_equiv_ns(&self) -> f64 {
        match self.wall_ns {
            Some(ns) => ns as f64,
            None => self.busy_ns as f64 / self.workers as f64,
        }
    }

    /// Duration minus what the children cover (never below zero).
    pub fn self_ns(&self) -> f64 {
        let children: f64 = self.children.iter().map(Node::wall_equiv_ns).sum();
        (self.wall_equiv_ns() - children).max(0.0)
    }

    /// Self time of every node, by name (names repeat only when a layer
    /// appears twice, in which case the self times add).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        self.walk(&mut |n, _| {
            *out.entry(n.name.clone()).or_insert(0.0) += n.self_ns();
        });
        out
    }

    /// Total self time of nodes that belong to no layer.
    pub fn unattributed_ns(&self) -> f64 {
        let mut total = 0.0;
        self.walk(&mut |n, _| {
            if !n.layer {
                total += n.self_ns();
            }
        });
        total
    }

    /// Unattributed share of the root's duration, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let root = self.wall_equiv_ns();
        if root > 0.0 {
            100.0 * self.unattributed_ns() / root
        } else {
            0.0
        }
    }

    fn walk(&self, f: &mut impl FnMut(&Node, usize)) {
        self.walk_at(0, f);
    }

    fn walk_at(&self, depth: usize, f: &mut impl FnMut(&Node, usize)) {
        f(self, depth);
        for c in &self.children {
            c.walk_at(depth + 1, f);
        }
    }

    /// Renders the tree as an aligned text table.
    pub fn render(&self) -> String {
        let root = self.wall_equiv_ns().max(1.0);
        let ms = |ns: f64| format!("{:.3}", ns / 1e6);
        let mut out = format!(
            "{:<34} {:<40} {:>11} {:>11} {:>11} {:>6}\n",
            "layer", "call", "wall_ms", "busy_ms", "self_ms", "self%"
        );
        self.walk(&mut |n, depth| {
            let wall = n.wall_ns.map_or("-".to_string(), |w| ms(w as f64));
            let busy = if n.workers > 1 {
                ms(n.busy_ns as f64)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<34} {:<40} {:>11} {:>11} {:>11} {:>6.1}\n",
                format!("{}{}", "  ".repeat(depth), n.name),
                n.call,
                wall,
                busy,
                ms(n.self_ns()),
                100.0 * n.self_ns() / root
            ));
        });
        out.push_str(&format!(
            "{:<34} {:<40} {:>11} {:>11} {:>11} {:>6.1}\n",
            "unattributed",
            "(self time outside any layer)",
            "",
            "",
            ms(self.unattributed_ns()),
            self.unattributed_pct()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_unattributed() {
        let tree = Node::wall("root", "all", 1_000)
            .glue()
            .child(Node::wall("a", "f", 600).child(Node::wall("b", "g", 200)))
            .child(Node::busy("c", "h", 600, 2));
        assert_eq!(tree.self_ns(), 100.0);
        assert_eq!(tree.unattributed_ns(), 100.0);
        assert_eq!(tree.self_times()["a"], 400.0);
        assert_eq!(tree.self_times()["c"], 300.0);
        assert!((tree.unattributed_pct() - 10.0).abs() < 1e-9);
    }
}
