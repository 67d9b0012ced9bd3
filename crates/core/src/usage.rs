//! Component-usage accounting: regenerates Table 1.
//!
//! The paper's Table 1 records which of the six architectural components
//! (API, SQL, OLAP, Compute, Stream, Storage) each representative use case
//! exercises. Platform entry points note the components they touch against
//! the active use-case context; [`UsageTracker::render_table`] prints the
//! matrix in the paper's layout.

use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The six layers of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    Api,
    Sql,
    Olap,
    Compute,
    Stream,
    Storage,
}

impl Component {
    pub fn label(&self) -> &'static str {
        match self {
            Component::Api => "API",
            Component::Sql => "SQL",
            Component::Olap => "OLAP",
            Component::Compute => "Compute",
            Component::Stream => "Stream",
            Component::Storage => "Storage",
        }
    }

    /// Row order used by Table 1.
    pub fn all() -> [Component; 6] {
        [
            Component::Api,
            Component::Sql,
            Component::Olap,
            Component::Compute,
            Component::Stream,
            Component::Storage,
        ]
    }
}

/// Thread-safe usage matrix.
#[derive(Clone, Default)]
pub struct UsageTracker {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Default)]
struct Inner {
    context: Option<String>,
    matrix: BTreeMap<String, BTreeSet<Component>>,
    /// preserve first-seen column order
    order: Vec<String>,
}

impl UsageTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the active use case; subsequent notes attribute to it.
    pub fn begin_use_case(&self, name: &str) {
        let mut inner = self.inner.write();
        inner.context = Some(name.to_string());
        if !inner.order.iter().any(|n| n == name) {
            inner.order.push(name.to_string());
            inner.matrix.insert(name.to_string(), BTreeSet::new());
        }
    }

    pub fn end_use_case(&self) {
        self.inner.write().context = None;
    }

    /// Note that the active use case touched a component (no-op without an
    /// active context).
    pub fn note(&self, component: Component) {
        let mut inner = self.inner.write();
        if let Some(ctx) = inner.context.clone() {
            inner.matrix.entry(ctx).or_default().insert(component);
        }
    }

    /// Does the matrix row for `use_case` mark `component`?
    pub fn uses(&self, use_case: &str, component: Component) -> bool {
        self.inner
            .read()
            .matrix
            .get(use_case)
            .map(|s| s.contains(&component))
            .unwrap_or(false)
    }

    /// Render the Table 1 matrix ("Y" marks, components as rows, use cases
    /// as columns, in first-seen order).
    pub fn render_table(&self) -> String {
        let inner = self.inner.read();
        let cols = &inner.order;
        let mut out = String::new();
        out.push_str(&format!("{:<10}", ""));
        for c in cols {
            out.push_str(&format!("| {:<22} ", c));
        }
        out.push('\n');
        out.push_str(&"-".repeat(10 + cols.len() * 25));
        out.push('\n');
        for comp in Component::all() {
            out.push_str(&format!("{:<10}", comp.label()));
            for c in cols {
                let mark = if inner
                    .matrix
                    .get(c)
                    .map(|s| s.contains(&comp))
                    .unwrap_or(false)
                {
                    "Y"
                } else {
                    ""
                };
                out.push_str(&format!("| {:<22} ", mark));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_per_use_case() {
        let t = UsageTracker::new();
        t.begin_use_case("Surge");
        t.note(Component::Api);
        t.note(Component::Compute);
        t.note(Component::Stream);
        t.end_use_case();
        t.begin_use_case("Restaurant Manager");
        t.note(Component::Sql);
        t.note(Component::Olap);
        t.end_use_case();
        assert!(t.uses("Surge", Component::Api));
        assert!(!t.uses("Surge", Component::Sql));
        assert!(t.uses("Restaurant Manager", Component::Olap));
        assert_eq!(t.inner.read().matrix["Surge"].len(), 3);
        assert!(!t.uses("unknown", Component::Api));
    }

    #[test]
    fn notes_without_context_are_dropped() {
        let t = UsageTracker::new();
        t.note(Component::Api);
        assert!(t.render_table().lines().count() >= 7);
        assert!(!t.inner.read().matrix.contains_key(""));
    }

    #[test]
    fn render_matches_table1_shape() {
        let t = UsageTracker::new();
        for (uc, comps) in [
            (
                "Surge",
                vec![Component::Api, Component::Compute, Component::Stream],
            ),
            ("RestaurantManager", vec![Component::Sql, Component::Olap]),
        ] {
            t.begin_use_case(uc);
            for c in comps {
                t.note(c);
            }
            t.end_use_case();
        }
        let table = t.render_table();
        let lines: Vec<&str> = table.lines().collect();
        // header + separator + 6 component rows
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains("Surge"));
        let api_row = lines.iter().find(|l| l.starts_with("API")).unwrap();
        assert!(api_row.contains('Y'));
        let sql_row = lines.iter().find(|l| l.starts_with("SQL")).unwrap();
        // SQL marked only in the second column
        assert_eq!(sql_row.matches('Y').count(), 1);
    }
}
