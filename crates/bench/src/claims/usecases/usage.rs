//! The component-usage matrix of Table 1 (claim E19).
//!
//! The paper's Table 1 records which of the six architectural components
//! (API, SQL, OLAP, Compute, Stream, Storage) each representative use case
//! exercises. The use-case runner declares, use case by use case, the
//! components each step it runs is built on; nothing here observes the
//! platform. [`UsageTracker::render_table`] prints the matrix in the
//! paper's layout.

use std::collections::BTreeSet;

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

/// The Table 1 matrix: for each use case, in the order its runner began
/// it, the components its runner declared it touches.
#[derive(Default)]
pub struct UsageTracker {
    columns: Vec<(&'static str, BTreeSet<Component>)>,
}

impl UsageTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the column of `name`; later notes mark it.
    pub fn begin_use_case(&mut self, name: &'static str) {
        self.columns.push((name, BTreeSet::new()));
    }

    /// Mark `component` in the column last begun.
    pub fn note(&mut self, component: Component) {
        if let Some((_, used)) = self.columns.last_mut() {
            used.insert(component);
        }
    }

    /// Does the matrix row for `use_case` mark `component`?
    pub fn uses(&self, use_case: &str, component: Component) -> bool {
        let mut columns = self.columns.iter();
        columns.any(|(name, used)| *name == use_case && used.contains(&component))
    }

    /// Render the Table 1 matrix ("Y" marks, components as rows, use cases
    /// as columns, in first-seen order).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", ""));
        for (name, _) in &self.columns {
            out.push_str(&format!("| {:<22} ", name));
        }
        out.push('\n');
        out.push_str(&"-".repeat(10 + self.columns.len() * 25));
        out.push('\n');
        for comp in Component::all() {
            out.push_str(&format!("{:<10}", comp.label()));
            for (_, used) in &self.columns {
                let mark = if used.contains(&comp) { "Y" } else { "" };
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
        let mut t = UsageTracker::new();
        t.begin_use_case("Surge");
        t.note(Component::Api);
        t.note(Component::Compute);
        t.note(Component::Stream);
        t.begin_use_case("Restaurant Manager");
        t.note(Component::Sql);
        t.note(Component::Olap);
        assert!(t.uses("Surge", Component::Api));
        assert!(!t.uses("Surge", Component::Sql));
        assert!(t.uses("Restaurant Manager", Component::Olap));
        assert!(!t.uses("Restaurant Manager", Component::Api));
        assert!(!t.uses("unknown", Component::Api));
    }

    #[test]
    fn render_matches_table1_shape() {
        let mut t = UsageTracker::new();
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
