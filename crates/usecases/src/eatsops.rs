//! UberEats Ops automation (§5.4).
//!
//! "The UberEats team needed a way to execute ad hoc analytical queries on
//! real time data... Once an insight was discovered, a subsequent need was
//! to productionize the query in a rule-based automation framework...
//! Uber needed to limit the number of customers and couriers at a
//! restaurant. The ops team was able to identify such metrics using Presto
//! on top of real-time data managed by Pinot and then inject such queries
//! into the automation framework... the same infrastructure provided a
//! seamless path from ad-hoc exploration to production rollout."

use rtdi_common::{Error, Result, Row};

/// What to do when a rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleAction {
    /// Notify couriers/restaurants in the offending area.
    Notify { template: String },
    /// Throttle new orders for the area.
    ThrottleOrders,
}

/// A productionized ad-hoc query: the SQL plus the fire condition.
///
/// The rule fires once per result row whose `metric_column` satisfies the
/// threshold — the SQL itself typically aggregates "needed statistics for
/// a given geographical location in the past few minutes".
pub struct AutomationRule {
    pub name: String,
    pub sql: String,
    pub metric_column: String,
    pub threshold: f64,
    pub action: RuleAction,
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    pub rule: String,
    pub subject: Row,
    pub action: RuleAction,
    pub message: String,
}

/// The rule-based automation framework.
pub struct OpsAutomation {
    rules: Vec<AutomationRule>,
}

impl OpsAutomation {
    pub fn new() -> Self {
        OpsAutomation { rules: Vec::new() }
    }

    /// Promote an explored query into production ("inject such queries
    /// into the automation framework"). Validates the SQL eagerly through
    /// `validate` (e.g. an explain through `platform.sql`) so broken rules
    /// never reach the evaluation loop.
    pub fn promote_with(
        &mut self,
        validate: impl Fn(&str) -> Result<()>,
        rule: AutomationRule,
    ) -> Result<()> {
        validate(&rule.sql)?;
        if rule.metric_column.is_empty() {
            return Err(Error::InvalidArgument("rule needs a metric column".into()));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Evaluate every rule against fresh data through any SQL executor
    /// returning result rows; returns the fired alerts.
    pub fn evaluate_with(&self, run: impl Fn(&str) -> Result<Vec<Row>>) -> Result<Vec<Alert>> {
        let mut alerts = Vec::new();
        for rule in &self.rules {
            let rows = run(&rule.sql)?;
            for row in rows {
                let metric = row.get_double(&rule.metric_column).ok_or_else(|| {
                    Error::Sql(format!(
                        "rule '{}' metric column '{}' missing from result",
                        rule.name, rule.metric_column
                    ))
                })?;
                if metric > rule.threshold {
                    let message = format!(
                        "[{}] {} = {:.1} exceeds {:.1}",
                        rule.name, rule.metric_column, metric, rule.threshold
                    );
                    alerts.push(Alert {
                        rule: rule.name.clone(),
                        subject: row,
                        action: rule.action.clone(),
                        message,
                    });
                }
            }
        }
        Ok(alerts)
    }
}

impl Default for OpsAutomation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TripEventGenerator;
    use rtdi_olap::segment::IndexSpec;
    use rtdi_olap::table::{OlapTable, TableConfig};
    use rtdi_sql::connector::PinotConnector;
    use rtdi_sql::engine::{EngineConfig, SqlEngine};
    use std::sync::Arc;

    fn promote(ops: &mut OpsAutomation, engine: &SqlEngine, rule: AutomationRule) -> Result<()> {
        ops.promote_with(|sql| engine.explain(sql).map(|_| ()), rule)
    }

    fn evaluate(ops: &OpsAutomation, engine: &SqlEngine) -> Result<Vec<Alert>> {
        ops.evaluate_with(|sql| engine.query(sql).map(|o| o.rows))
    }

    /// Stand up courier-activity data in Pinot + a SQL engine over it —
    /// the §5.4 covid capacity scenario.
    fn setup() -> (SqlEngine, Arc<OlapTable>) {
        let schema = rtdi_common::Schema::of(
            "courier_activity",
            &[
                ("hex", rtdi_common::FieldType::Str),
                ("restaurant", rtdi_common::FieldType::Str),
                ("items", rtdi_common::FieldType::Int),
                ("ts", rtdi_common::FieldType::Timestamp),
            ],
        );
        let table = OlapTable::new(
            TableConfig::new("courier_activity", schema)
                .with_index_spec(IndexSpec::none().with_inverted(&["hex", "restaurant"]))
                .with_time_column("ts")
                .with_partitions(2),
        )
        .unwrap();
        let mut g = TripEventGenerator::new(55, 64);
        for i in 0..3_000usize {
            let o = g.eats_order((i as i64) * 100);
            table.ingest(i % 2, o.value).unwrap();
        }
        let pinot = PinotConnector::new();
        pinot.register(table.clone());
        let mut engine = SqlEngine::new(EngineConfig::default());
        engine.register_connector("pinot", Arc::new(pinot));
        (engine, table)
    }

    #[test]
    fn adhoc_exploration_then_promotion() {
        let (engine, _) = setup();
        // 1. ops explores ad hoc via PrestoSQL
        let explored = engine
            .query(
                "SELECT hex, COUNT(*) AS couriers FROM courier_activity \
                 GROUP BY hex ORDER BY couriers DESC LIMIT 5",
            )
            .unwrap();
        assert_eq!(explored.rows.len(), 5);
        let hottest = explored.rows[0].get_double("couriers").unwrap();
        assert!(hottest > 0.0);

        // 2. the discovered query is promoted into the automation framework
        let mut ops = OpsAutomation::new();
        promote(
            &mut ops,
            &engine,
            AutomationRule {
                name: "covid-capacity".into(),
                sql: "SELECT hex, COUNT(*) AS couriers FROM courier_activity GROUP BY hex".into(),
                metric_column: "couriers".into(),
                threshold: hottest / 2.0,
                action: RuleAction::Notify {
                    template: "too many couriers at {hex}".into(),
                },
            },
        )
        .unwrap();

        // 3. production evaluation fires for the hot hexes
        let alerts = evaluate(&ops, &engine).unwrap();
        assert!(!alerts.is_empty());
        assert!(alerts
            .iter()
            .any(|a| { a.subject.get_double("couriers").unwrap() > hottest / 2.0 }));
        assert!(alerts[0].message.contains("covid-capacity"));
    }

    #[test]
    fn broken_rules_rejected_at_promotion() {
        let (engine, _) = setup();
        let mut ops = OpsAutomation::new();
        assert!(promote(
            &mut ops,
            &engine,
            AutomationRule {
                name: "bad-sql".into(),
                sql: "SELECT FROM WHERE".into(),
                metric_column: "x".into(),
                threshold: 0.0,
                action: RuleAction::ThrottleOrders,
            },
        )
        .is_err());
        assert!(promote(
            &mut ops,
            &engine,
            AutomationRule {
                name: "no-metric".into(),
                sql: "SELECT hex FROM courier_activity LIMIT 1".into(),
                metric_column: "".into(),
                threshold: 0.0,
                action: RuleAction::ThrottleOrders,
            },
        )
        .is_err());
        assert!(ops.rules.is_empty());
    }

    #[test]
    fn rule_with_missing_metric_column_errors_at_eval() {
        let (engine, _) = setup();
        let mut ops = OpsAutomation::new();
        promote(
            &mut ops,
            &engine,
            AutomationRule {
                name: "misnamed".into(),
                sql: "SELECT hex FROM courier_activity LIMIT 1".into(),
                metric_column: "couriers".into(),
                threshold: 0.0,
                action: RuleAction::ThrottleOrders,
            },
        )
        .unwrap();
        assert!(evaluate(&ops, &engine).is_err());
    }

    #[test]
    fn quiet_metrics_fire_nothing() {
        let (engine, _) = setup();
        let mut ops = OpsAutomation::new();
        promote(
            &mut ops,
            &engine,
            AutomationRule {
                name: "impossible".into(),
                sql: "SELECT hex, COUNT(*) AS couriers FROM courier_activity GROUP BY hex".into(),
                metric_column: "couriers".into(),
                threshold: 1e12,
                action: RuleAction::ThrottleOrders,
            },
        )
        .unwrap();
        assert!(evaluate(&ops, &engine).unwrap().is_empty());
    }
}
