//! Mapping [`FqError`] onto HTTP statuses and the structured error body.
//!
//! Every non-2xx response the service emits carries the same JSON
//! envelope:
//!
//! ```json
//! {"v":1,"error":{"kind":"invalid_config","message":"..."}}
//! ```
//!
//! `kind` is a stable machine-readable tag (one per [`FqError`] variant
//! plus the HTTP-layer tags `bad_request`, `not_found`,
//! `method_not_allowed`, `payload_too_large`, `not_implemented`,
//! `http_version`, `queue_full`, `shutting_down`, `timeout`); `message`
//! is human-readable and may change wording freely.

use frozenqubits::FqError;
use serde::json::Value;

use crate::http::Response;
use crate::wire::WIRE_V;

/// The stable machine-readable tag for an [`FqError`].
pub fn kind_name(error: &FqError) -> &'static str {
    match error {
        FqError::TooManyFrozen { .. } => "too_many_frozen",
        FqError::InvalidConfig(_) => "invalid_config",
        FqError::Ising(_) => "ising",
        FqError::Circuit(_) => "circuit",
        FqError::Transpile(_) => "transpile",
        FqError::Sim(_) => "sim",
        FqError::Graph(_) => "graph",
        FqError::Cut(_) => "cut",
        FqError::Serde(_) => "serde",
        FqError::UnknownTier(_) => "unknown_tier",
        FqError::Io(_) => "io",
        // `FqError` is #[non_exhaustive]; new variants surface as
        // internal errors until this map learns their names.
        _ => "internal",
    }
}

/// The HTTP status class for an [`FqError`]: [`status_for_kind`] of
/// its [`kind_name`], so a shard's direct answer and the dispatcher's
/// answer for a job a shard degraded cannot drift apart.
pub fn status_for(error: &FqError) -> u16 {
    status_for_kind(kind_name(error))
}

/// The status a shard uses for an error of wire tag `kind`. The
/// dispatcher uses it to reconstruct a synchronous response from a poll
/// envelope after a shard degraded a slow job to `202`.
///
/// * wire-format problems (`serde`) are the client's request syntax →
///   `400`;
/// * validation failures (invalid config, too many frozen qubits,
///   malformed problem graphs/models, unknown tiers) are well-formed but
///   unprocessable → `422`;
/// * everything else is the engine's problem → `500`.
pub fn status_for_kind(kind: &str) -> u16 {
    match kind {
        "serde" => 400,
        "invalid_config" | "too_many_frozen" | "graph" | "ising" | "unknown_tier" => 422,
        _ => 500,
    }
}

/// The canonical error envelope body.
pub fn error_body(kind: &str, message: &str) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        (
            "error",
            Value::object(vec![
                ("kind", Value::string(kind)),
                ("message", Value::string(message)),
            ]),
        ),
    ])
    .to_json()
}

/// A complete error response with the envelope body.
pub fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(status, error_body(kind, message))
}

/// `404` for a target no route serves.
pub fn not_found(path: &str) -> Response {
    error_response(404, "not_found", &format!("no route for `{path}`"))
}

/// `405` for a known path hit with the wrong `method`, naming the
/// methods it does `allow` (also as the `allow` header).
pub fn method_not_allowed(method: &str, allow: &'static str) -> Response {
    error_response(
        405,
        "method_not_allowed",
        &format!("{method} is not allowed here; allowed: {allow}"),
    )
    .with_header("allow", allow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_partition_the_error_space() {
        assert_eq!(status_for(&FqError::Serde("x".into())), 400);
        assert_eq!(status_for(&FqError::InvalidConfig("x".into())), 422);
        assert_eq!(status_for(&FqError::UnknownTier("turbo".into())), 422);
        assert_eq!(status_for_kind("unknown_tier"), 422);
        assert_eq!(
            status_for(&FqError::TooManyFrozen { m: 3, num_vars: 2 }),
            422
        );
        assert_eq!(status_for(&FqError::Io("x".into())), 500);
    }

    #[test]
    fn envelope_is_canonical_json() {
        let body = error_body("bad_request", "nope");
        assert_eq!(
            body,
            r#"{"v":1,"error":{"kind":"bad_request","message":"nope"}}"#
        );
        let parsed = Value::parse(&body).unwrap();
        assert_eq!(
            parsed
                .field("error")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "bad_request"
        );
    }

    #[test]
    fn every_variant_has_a_kind() {
        let errors: Vec<FqError> = vec![
            FqError::TooManyFrozen { m: 1, num_vars: 0 },
            FqError::InvalidConfig("x".into()),
            FqError::Serde("x".into()),
            FqError::Io("x".into()),
            FqError::UnknownTier("turbo".into()),
        ];
        for e in errors {
            assert_ne!(kind_name(&e), "internal");
        }
        assert_eq!(
            kind_name(&FqError::UnknownTier("turbo".into())),
            "unknown_tier"
        );
    }
}
