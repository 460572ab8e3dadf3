//! Route resolution: `(method, path)` → what the server should do.
//!
//! The surface is tiny and versioned under `/v1`:
//!
//! | method | path                  | route                          |
//! |--------|-----------------------|--------------------------------|
//! | POST   | `/v1/jobs`            | submit a job (sync/async)      |
//! | GET    | `/v1/jobs/{id}`       | poll a submitted job           |
//! | GET    | `/v1/healthz`         | liveness probe                 |
//! | GET    | `/v1/stats`           | cache/queue/job telemetry      |
//! | GET    | `/v1/templates`       | template index (`?limit=K`)    |
//! | GET    | `/v1/templates/{fp}`  | one template artifact          |
//! | POST   | `/v1/templates`       | push a template artifact       |
//!
//! Known paths with the wrong method get `405` with an `Allow` header;
//! everything else is `404`. Trailing slashes are not aliased — the
//! wire format is pinned, and so are the paths.

use frozenqubits::JobId;

/// What a request resolves to.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/stats`.
    Stats,
    /// `POST /v1/jobs`.
    Submit,
    /// `GET /v1/jobs/{id}`.
    Job(JobId),
    /// A `/v1/jobs/{id}` target whose id does not parse, carrying the
    /// parse error's own message. → `400`.
    MalformedJobId(String),
    /// `GET /v1/templates`: the resident-template index (fingerprint +
    /// recency, hottest first) a peer shard pulls to plan its warm set;
    /// `?limit=K` keeps the first `K` rows.
    TemplateIndex,
    /// `GET /v1/templates/{fingerprint}`: one serialized template
    /// artifact.
    Template(String),
    /// `POST /v1/templates`: push a serialized template artifact into
    /// this shard's store (the receive half of warm transfer).
    TemplatePush,
    /// A `/v1/templates/{fingerprint}` target whose fingerprint is not
    /// 16 lower-case hex digits. → `400`.
    MalformedFingerprint(String),
    /// A known path with the wrong method. → `405` + `Allow`.
    MethodNotAllowed {
        /// The methods the path does accept.
        allow: &'static str,
    },
    /// No such path. → `404`.
    NotFound,
}

/// Resolves `(method, path)` to a [`Route`].
pub(crate) fn route(method: &str, path: &str) -> Route {
    match path {
        "/v1/healthz" => match method {
            "GET" => Route::Healthz,
            _ => Route::MethodNotAllowed { allow: "GET" },
        },
        "/v1/stats" => match method {
            "GET" => Route::Stats,
            _ => Route::MethodNotAllowed { allow: "GET" },
        },
        "/v1/jobs" => match method {
            "POST" => Route::Submit,
            _ => Route::MethodNotAllowed { allow: "POST" },
        },
        "/v1/templates" => match method {
            "GET" => Route::TemplateIndex,
            "POST" => Route::TemplatePush,
            _ => Route::MethodNotAllowed { allow: "GET, POST" },
        },
        _ => {
            if let Some(raw_id) = path.strip_prefix("/v1/jobs/") {
                if raw_id.is_empty() || raw_id.contains('/') {
                    return Route::NotFound;
                }
                if method != "GET" {
                    return Route::MethodNotAllowed { allow: "GET" };
                }
                return match raw_id.parse::<JobId>() {
                    Ok(id) => Route::Job(id),
                    // Keep `JobId::FromStr`'s message (the single source
                    // of the expected-format text), without the generic
                    // serde-error prefix.
                    Err(frozenqubits::FqError::Serde(message)) => Route::MalformedJobId(message),
                    Err(other) => Route::MalformedJobId(other.to_string()),
                };
            }
            if let Some(raw_fp) = path.strip_prefix("/v1/templates/") {
                if raw_fp.is_empty() || raw_fp.contains('/') {
                    return Route::NotFound;
                }
                if method != "GET" {
                    return Route::MethodNotAllowed { allow: "GET" };
                }
                // One source for the format check: the core validator
                // the stores themselves use.
                return if frozenqubits::is_template_fingerprint(raw_fp) {
                    Route::Template(raw_fp.to_string())
                } else {
                    Route::MalformedFingerprint(format!(
                        "malformed template fingerprint `{raw_fp}` (expected 16 lower-case hex digits)"
                    ))
                };
            }
            Route::NotFound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_the_published_surface() {
        assert_eq!(route("GET", "/v1/healthz"), Route::Healthz);
        assert_eq!(route("GET", "/v1/stats"), Route::Stats);
        assert_eq!(route("POST", "/v1/jobs"), Route::Submit);
        assert_eq!(
            route("GET", "/v1/jobs/job-000000000000002a"),
            Route::Job(JobId::new(42))
        );
    }

    #[test]
    fn rejects_wrong_methods_with_allow() {
        assert_eq!(
            route("DELETE", "/v1/jobs"),
            Route::MethodNotAllowed { allow: "POST" }
        );
        assert_eq!(
            route("POST", "/v1/stats"),
            Route::MethodNotAllowed { allow: "GET" }
        );
        assert_eq!(
            route("POST", "/v1/jobs/job-000000000000002a"),
            Route::MethodNotAllowed { allow: "GET" }
        );
    }

    #[test]
    fn routes_the_template_surface() {
        assert_eq!(route("GET", "/v1/templates"), Route::TemplateIndex);
        assert_eq!(route("POST", "/v1/templates"), Route::TemplatePush);
        assert_eq!(
            route("GET", "/v1/templates/00c0ffee00c0ffee"),
            Route::Template("00c0ffee00c0ffee".into())
        );
        assert_eq!(
            route("DELETE", "/v1/templates"),
            Route::MethodNotAllowed { allow: "GET, POST" }
        );
        assert_eq!(
            route("POST", "/v1/templates/00c0ffee00c0ffee"),
            Route::MethodNotAllowed { allow: "GET" }
        );
        assert!(matches!(
            route("GET", "/v1/templates/UPPER-not-hex"),
            Route::MalformedFingerprint(msg) if msg.contains("16 lower-case hex")
        ));
        assert_eq!(route("GET", "/v1/templates/"), Route::NotFound);
        assert_eq!(route("GET", "/v1/templates/a/b"), Route::NotFound);
    }

    #[test]
    fn unknown_targets_404_and_bad_ids_400() {
        assert_eq!(route("GET", "/"), Route::NotFound);
        assert_eq!(route("GET", "/v2/jobs"), Route::NotFound);
        assert_eq!(route("GET", "/v1/jobs/"), Route::NotFound);
        assert_eq!(route("GET", "/v1/jobs/a/b"), Route::NotFound);
        assert!(matches!(
            route("GET", "/v1/jobs/job-42"),
            Route::MalformedJobId(msg) if msg.contains("job-42") && msg.contains("16 hex")
        ));
    }
}
