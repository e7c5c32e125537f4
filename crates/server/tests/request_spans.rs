//! Daemon request spans carry the session the request names. This
//! binary owns the global trace journal: nothing else here toggles or
//! drains it.

use qr_obs::trace::{self, EventKind};
use qr_server::proto::{Endpoint, JobState, Request, Response};
use qr_server::{Client, Server, ServerConfig};
use qr_workloads::Scale;
use quickrec_core::{Encoding, OrderMode};
use std::time::Duration;

#[test]
fn fetch_span_is_keyed_on_the_fetched_session() {
    let dir = std::env::temp_dir().join(format!("qr-spans-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let config = ServerConfig {
        workers: 1,
        shards: 1,
        queue_capacity: 4,
        store_root: dir.join("store"),
        event_workers: 1,
        max_connections: 16,
    };
    let handle = Server::start(&Endpoint::Unix(dir.join("qd.sock")), &config).expect("start");
    trace::global().set_enabled(true);

    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let Response::Submitted { id } = client
        .call(&Request::SubmitWorkload {
            name: "spans".into(),
            workload: "fft".into(),
            threads: 2,
            scale: Scale::Test,
            encoding: Encoding::Delta,
            order: OrderMode::TotalOrder,
        })
        .expect("submit")
    else {
        panic!("submission not accepted");
    };
    let job = client.wait_for(id, Duration::from_secs(120)).expect("wait");
    assert_eq!(job.state, JobState::Done, "{:?}", job.state);
    assert_ne!(id, 0, "session ids start at 1, so 0 cannot pass for a keyed span");
    match client.call(&Request::Fetch { id }).expect("fetch") {
        Response::Fetched { .. } => {}
        other => panic!("fetch: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    handle.wait();

    let events = trace::global().drain();
    let sessions = |name: &str, kind: EventKind| -> Vec<u64> {
        events.iter().filter(|e| e.name == name && e.kind == kind).map(|e| e.session).collect()
    };
    assert_eq!(sessions("fetch", EventKind::Begin), [id]);
    assert_eq!(sessions("fetch", EventKind::End), [id]);
    // A request that names no session keeps session 0.
    assert_eq!(sessions("submit_workload", EventKind::Begin), [0]);
    std::fs::remove_dir_all(&dir).ok();
}
