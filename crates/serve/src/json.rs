//! The service's JSON reader, by its old name: an alias of
//! [`sinr_scenario::json`], the workspace's one codec (writer and
//! parser). `Value` is [`sinr_scenario::Json`], so request lines and the
//! records the service writes share one value type.

pub use sinr_scenario::json::{parse, Json as Value, ParseError};
