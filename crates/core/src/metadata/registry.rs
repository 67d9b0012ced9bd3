//! Versioned schema registry.
//!
//! §3 Metadata requirements: "ability to version the metadata and have
//! checks for ensuring backward compatibility across versions." The
//! registry is also the integration point Pinot uses to "automatically
//! infer the schema from the input Kafka topic" (§4.3.3) — see
//! [`SchemaRegistry::infer_from_rows`].

use parking_lot::RwLock;
use rtdi_common::{Error, Field, FieldType, Result, Row, Schema, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A schema plus its registry version number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedSchema {
    pub version: u32,
    pub schema: Schema,
}

/// Central, thread-safe schema registry shared by stream topics, OLAP
/// tables and warehouse datasets: each subject's versions, oldest first.
#[derive(Clone, Default)]
pub struct SchemaRegistry {
    subjects: Arc<RwLock<BTreeMap<String, Vec<Schema>>>>,
}

impl SchemaRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new version for `subject`. Fails unless consumers of
    /// the previous version can read it (backward compatibility). Returns
    /// the registered version.
    pub fn register(&self, subject: &str, schema: Schema) -> Result<VersionedSchema> {
        let registered = schema.clone();
        self.register_with(subject, registered, |version| {
            Ok(VersionedSchema { version, schema })
        })
    }

    /// [`SchemaRegistry::register`], kept only if `create` — told the
    /// version the schema will get — succeeds: a refused create leaves
    /// the subject as it was. The registry is held for the call, so two
    /// creates under one registry never interleave.
    pub fn register_with<T>(
        &self,
        subject: &str,
        schema: Schema,
        create: impl FnOnce(u32) -> Result<T>,
    ) -> Result<T> {
        let mut subjects = self.subjects.write();
        let prior = subjects.get(subject).map_or(&[][..], Vec::as_slice);
        if let Some(last) = prior.last() {
            if !schema.is_backward_compatible_with(last) {
                return Err(Error::Schema(format!(
                    "schema for '{subject}' is not backward compatible with version {}",
                    prior.len()
                )));
            }
        }
        let created = create(prior.len() as u32 + 1)?;
        subjects
            .entry(subject.to_string())
            .or_default()
            .push(schema);
        Ok(created)
    }

    /// Latest version of a subject.
    pub fn latest(&self, subject: &str) -> Result<VersionedSchema> {
        let subjects = self.subjects.read();
        let versions = subjects
            .get(subject)
            .ok_or_else(|| Error::NotFound(format!("schema subject '{subject}'")))?;
        let schema = versions
            .last()
            .ok_or_else(|| Error::NotFound(format!("no versions for '{subject}'")))?;
        Ok(VersionedSchema {
            version: versions.len() as u32,
            schema: schema.clone(),
        })
    }

    /// All registered subjects — the data-discovery listing of §9.4.
    pub fn subjects(&self) -> Vec<String> {
        self.subjects.read().keys().cloned().collect()
    }

    /// Substring search over subject names (data discovery).
    pub fn discover(&self, needle: &str) -> Vec<String> {
        self.subjects
            .read()
            .keys()
            .filter(|s| s.contains(needle))
            .cloned()
            .collect()
    }

    /// Infer a schema by sampling rows, the way Pinot's Uber integration
    /// infers schemas from Kafka topics (§4.3.3). Fields seen with
    /// conflicting scalar types widen (Int+Double -> Double, anything else
    /// -> Str). Also estimates per-column cardinality from the sample.
    pub fn infer_from_rows(name: &str, sample: &[Row]) -> (Schema, BTreeMap<String, usize>) {
        let mut types: BTreeMap<String, FieldType> = BTreeMap::new();
        let mut distinct: BTreeMap<String, std::collections::HashSet<String>> = BTreeMap::new();
        for row in sample {
            for (col, val) in row.iter() {
                let t = match val {
                    Value::Null => continue,
                    Value::Bool(_) => FieldType::Bool,
                    Value::Int(_) => FieldType::Int,
                    Value::Double(_) => FieldType::Double,
                    Value::Str(_) => FieldType::Str,
                    Value::Bytes(_) => FieldType::Bytes,
                    Value::Json(_) => FieldType::Json,
                };
                types
                    .entry(col.to_string())
                    .and_modify(|prev| *prev = widen(*prev, t))
                    .or_insert(t);
                distinct
                    .entry(col.to_string())
                    .or_default()
                    .insert(format!("{val}"));
            }
        }
        let fields = types.into_iter().map(|(n, t)| Field::new(n, t)).collect();
        let cardinality = distinct.into_iter().map(|(k, v)| (k, v.len())).collect();
        (Schema::new(name, fields), cardinality)
    }
}

fn widen(a: FieldType, b: FieldType) -> FieldType {
    use FieldType::*;
    if a == b {
        return a;
    }
    match (a, b) {
        (Int, Double) | (Double, Int) => Double,
        (Int, Timestamp) | (Timestamp, Int) => Timestamp,
        _ => Str,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1() -> Schema {
        Schema::new(
            "orders",
            vec![
                Field::new("id", FieldType::Int).required(),
                Field::new("total", FieldType::Double),
            ],
        )
    }

    #[test]
    fn register_and_fetch_versions() {
        let reg = SchemaRegistry::new();
        let r1 = reg.register("orders", v1()).unwrap();
        assert_eq!(r1.version, 1);
        let mut v2 = v1();
        v2.fields.push(Field::new("city", FieldType::Str));
        let r2 = reg.register("orders", v2.clone()).unwrap();
        assert_eq!(r2.version, 2);
        assert_eq!(reg.latest("orders").unwrap().schema, v2);
        assert!(reg.latest("nope").is_err());
    }

    #[test]
    fn incompatible_version_rejected() {
        let reg = SchemaRegistry::new();
        reg.register("orders", v1()).unwrap();
        let mut bad = v1();
        bad.fields.retain(|f| f.name != "total");
        assert!(matches!(reg.register("orders", bad), Err(Error::Schema(_))));
        assert_eq!(reg.latest("orders").unwrap().version, 1);
    }

    #[test]
    fn discovery_lists_subjects() {
        let reg = SchemaRegistry::new();
        reg.register("kafka.trips", v1()).unwrap();
        reg.register("kafka.orders", v1()).unwrap();
        reg.register("pinot.orders", v1()).unwrap();
        assert_eq!(reg.subjects().len(), 3);
        assert_eq!(
            reg.discover("orders"),
            vec!["kafka.orders".to_string(), "pinot.orders".to_string()]
        );
    }

    #[test]
    fn inference_widens_and_estimates_cardinality() {
        let rows = vec![
            Row::new()
                .with("id", 1i64)
                .with("amount", 2i64)
                .with("city", "sf"),
            Row::new()
                .with("id", 2i64)
                .with("amount", 2.5)
                .with("city", "nyc"),
            Row::new()
                .with("id", 3i64)
                .with("amount", 3i64)
                .with("city", "sf"),
        ];
        let (schema, card) = SchemaRegistry::infer_from_rows("t", &rows);
        assert_eq!(schema.field("id").unwrap().field_type, FieldType::Int);
        assert_eq!(
            schema.field("amount").unwrap().field_type,
            FieldType::Double
        );
        assert_eq!(schema.field("city").unwrap().field_type, FieldType::Str);
        assert_eq!(card["city"], 2);
        assert_eq!(card["id"], 3);
    }

    #[test]
    fn inference_conflicting_types_fall_back_to_str() {
        let rows = vec![Row::new().with("x", 1i64), Row::new().with("x", "oops")];
        let (schema, _) = SchemaRegistry::infer_from_rows("t", &rows);
        assert_eq!(schema.field("x").unwrap().field_type, FieldType::Str);
    }
}
