//! Schemas for structured data.
//!
//! The paper's Metadata layer (§3) requires versioned schemas with
//! backward-compatibility checks; the registry itself lives in
//! `rtdi_core::metadata`, but the schema model is shared by every layer.

use crate::error::{Error, Result};
use crate::value::Value;

/// Logical type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    Bool,
    Int,
    Double,
    Str,
    Bytes,
    /// Semi-structured nested JSON (§4.3.3).
    Json,
    /// Epoch-millisecond timestamp; semantically an Int but flagged so
    /// OLAP tables know their time column.
    Timestamp,
}

impl FieldType {
    /// Whether a runtime value inhabits this type.
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (FieldType::Bool, Value::Bool(_))
                | (FieldType::Int, Value::Int(_))
                | (FieldType::Double, Value::Double(_))
                | (FieldType::Double, Value::Int(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Bytes, Value::Bytes(_))
                | (FieldType::Json, Value::Json(_))
                | (FieldType::Timestamp, Value::Int(_))
        )
    }
}

/// One named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub field_type: FieldType,
    /// Nullable fields may be absent from rows; required fields must be
    /// present and non-null.
    pub nullable: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, field_type: FieldType) -> Self {
        Field {
            name: name.into(),
            field_type,
            nullable: true,
        }
    }

    pub fn required(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered set of fields describing a stream topic, OLAP table or
/// archival dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: String,
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Self {
        Schema {
            name: name.into(),
            fields,
        }
    }

    /// Convenience builder from `(name, type)` pairs (all nullable).
    pub fn of(name: impl Into<String>, fields: &[(&str, FieldType)]) -> Self {
        Schema {
            name: name.into(),
            fields: fields.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
        }
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }

    /// Validate one field's cell: a required field is present and a
    /// present one is type-correct. Callers find the cells themselves or
    /// fill some from outside the row (an ingester defaulting the time
    /// column to the record's event time); extra columns are tolerated
    /// (the paper's pipelines decorate events with audit metadata en
    /// route).
    pub fn validate_cell(&self, field: &Field, cell: Option<&Value>) -> Result<()> {
        match cell {
            None | Some(Value::Null) if !field.nullable => Err(Error::Schema(format!(
                "required field '{}' missing in row for schema '{}'",
                field.name, self.name
            ))),
            Some(v) if !field.field_type.accepts(v) => Err(Error::Schema(format!(
                "field '{}' expected {:?}, got {v:?}",
                field.name, field.field_type
            ))),
            _ => Ok(()),
        }
    }

    /// Backward compatibility: can data written with `self` still be read
    /// by consumers expecting `prior`? Rules (Avro-style, matching the
    /// metadata-layer requirement in §3):
    /// - no field of `prior` may be removed;
    /// - no field may change type;
    /// - fields that were nullable may not become required... (that is a
    ///   *forward* concern; for backward reads we require new fields added
    ///   on top of `prior` to be nullable so old rows still validate).
    pub fn is_backward_compatible_with(&self, prior: &Schema) -> bool {
        for old in &prior.fields {
            match self.field(&old.name) {
                None => return false,
                Some(new) => {
                    if new.field_type != old.field_type {
                        return false;
                    }
                }
            }
        }
        // fields added relative to prior must be nullable
        for new in &self.fields {
            if prior.field(&new.name).is_none() && !new.nullable {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;

    impl Schema {
        /// Validate a row against this schema: required fields present and
        /// every present field type-correct. Extra columns are tolerated (the
        /// paper's pipelines decorate events with audit metadata en route).
        fn validate(&self, row: &Row) -> Result<()> {
            let mut fields = self.fields.iter();
            fields.try_for_each(|field| self.validate_cell(field, row.get(&field.name)))
        }
    }

    fn trips_schema() -> Schema {
        Schema::new(
            "trips",
            vec![
                Field::new("trip_id", FieldType::Str).required(),
                Field::new("fare", FieldType::Double),
                Field::new("ts", FieldType::Timestamp).required(),
            ],
        )
    }

    #[test]
    fn validate_accepts_conforming_row() {
        let s = trips_schema();
        let row = Row::new()
            .with("trip_id", "t1")
            .with("fare", 10.0)
            .with("ts", 1000i64);
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn validate_rejects_missing_required() {
        let s = trips_schema();
        let row = Row::new().with("fare", 10.0).with("ts", 1000i64);
        assert!(matches!(s.validate(&row), Err(Error::Schema(_))));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = trips_schema();
        let row = Row::new()
            .with("trip_id", "t1")
            .with("fare", "not a number")
            .with("ts", 1000i64);
        assert!(s.validate(&row).is_err());
    }

    #[test]
    fn validate_allows_null_in_nullable_and_extra_columns() {
        let s = trips_schema();
        let row = Row::new()
            .with("trip_id", "t1")
            .with("fare", Value::Null)
            .with("ts", 1000i64)
            .with("audit_id", "xyz"); // extra decoration
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn int_widens_to_double() {
        assert!(FieldType::Double.accepts(&Value::Int(3)));
        assert!(!FieldType::Int.accepts(&Value::Double(3.0)));
    }

    #[test]
    fn backward_compat_add_nullable_field_ok() {
        let v1 = trips_schema();
        let mut v2 = v1.clone();
        v2.fields.push(Field::new("city", FieldType::Str));
        assert!(v2.is_backward_compatible_with(&v1));
    }

    #[test]
    fn backward_compat_remove_field_breaks() {
        let v1 = trips_schema();
        let mut v2 = v1.clone();
        v2.fields.retain(|f| f.name != "fare");
        assert!(!v2.is_backward_compatible_with(&v1));
    }

    #[test]
    fn backward_compat_type_change_breaks() {
        let v1 = trips_schema();
        let mut v2 = v1.clone();
        v2.fields[1].field_type = FieldType::Str;
        assert!(!v2.is_backward_compatible_with(&v1));
    }

    #[test]
    fn backward_compat_add_required_field_breaks() {
        let v1 = trips_schema();
        let mut v2 = v1.clone();
        v2.fields
            .push(Field::new("city", FieldType::Str).required());
        assert!(!v2.is_backward_compatible_with(&v1));
    }
}
