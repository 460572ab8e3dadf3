//! Unit tests of the shard's routing table: the `(method, path)` match
//! in `server::handle_request`, answered in-process without a socket.
//!
//! | method | path                  | served by                      |
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
//! everything else is `404`. Trailing slashes are not aliased.

mod tests {
    use crate::http::Response;
    use crate::server::respond;
    use crate::wire::healthz_body;
    use frozenqubits::JobId;

    fn allow(response: &Response) -> Option<&str> {
        response
            .extra_headers
            .iter()
            .find(|(name, _)| *name == "allow")
            .map(|(_, value)| value.as_str())
    }

    /// Asserts a `405` whose `Allow` header lists `allowed`.
    fn assert_405(method: &str, path: &str, allowed: &str) {
        let response = respond(method, path);
        assert_eq!(response.status, 405, "{method} {path}: {}", response.body);
        assert_eq!(allow(&response), Some(allowed), "{method} {path}");
    }

    /// Asserts the `404` of a path no route serves.
    fn assert_no_route(path: &str) {
        let response = respond("GET", path);
        assert_eq!(response.status, 404, "GET {path}: {}", response.body);
        assert!(
            response.body.contains(&format!("no route for `{path}`")),
            "GET {path}: {}",
            response.body
        );
    }

    #[test]
    fn routes_the_published_surface() {
        let healthz = respond("GET", "/v1/healthz");
        assert_eq!((healthz.status, healthz.body), (200, healthz_body()));
        let stats = respond("GET", "/v1/stats");
        assert_eq!(stats.status, 200, "{}", stats.body);
        assert!(stats.body.contains("\"queue\""), "{}", stats.body);
        // An empty body reaches the submit path and fails its spec parse.
        let submit = respond("POST", "/v1/jobs");
        assert_eq!(submit.status, 400, "{}", submit.body);
        assert!(submit.body.contains("\"serde\""), "{}", submit.body);
        // The id parses: the poll answers for job 42, which was never issued.
        let poll = respond("GET", "/v1/jobs/job-000000000000002a");
        assert_eq!(poll.status, 404, "{}", poll.body);
        assert!(
            poll.body
                .contains(&format!("no such job `{}`", JobId::new(42))),
            "{}",
            poll.body
        );
    }

    #[test]
    fn rejects_wrong_methods_with_allow() {
        assert_405("DELETE", "/v1/jobs", "POST");
        assert_405("POST", "/v1/stats", "GET");
        assert_405("POST", "/v1/jobs/job-000000000000002a", "GET");
    }

    #[test]
    fn routes_the_template_surface() {
        let index = respond("GET", "/v1/templates");
        assert_eq!(index.status, 200, "{}", index.body);
        // An empty body reaches the push handler, which refuses it.
        let push = respond("POST", "/v1/templates");
        assert_eq!(push.status, 400, "{}", push.body);
        let artifact = respond("GET", "/v1/templates/00c0ffee00c0ffee");
        assert_eq!(artifact.status, 404, "{}", artifact.body);
        assert!(
            artifact
                .body
                .contains("no template `00c0ffee00c0ffee` resident"),
            "{}",
            artifact.body
        );
        assert_405("DELETE", "/v1/templates", "GET, POST");
        assert_405("POST", "/v1/templates/00c0ffee00c0ffee", "GET");
        let malformed = respond("GET", "/v1/templates/UPPER-not-hex");
        assert_eq!(malformed.status, 400, "{}", malformed.body);
        assert!(
            malformed.body.contains("16 lower-case hex"),
            "{}",
            malformed.body
        );
        assert_no_route("/v1/templates/");
        assert_no_route("/v1/templates/a/b");
    }

    #[test]
    fn unknown_targets_404_and_bad_ids_400() {
        for path in ["/", "/v2/jobs", "/v1/jobs/", "/v1/jobs/a/b"] {
            assert_no_route(path);
        }
        let malformed = respond("GET", "/v1/jobs/job-42");
        assert_eq!(malformed.status, 400, "{}", malformed.body);
        assert!(
            malformed.body.contains("job-42") && malformed.body.contains("16 hex"),
            "{}",
            malformed.body
        );
    }
}
