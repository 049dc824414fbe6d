//! End-to-end continuous telemetry: `hic batch --serve-metrics` exposes
//! live Prometheus exposition over HTTP while the DAG executes, and the
//! telemetry flags are validated at parse time with the exit-2 usage
//! convention.
//!
//! The live-batch test binds port 0 (ephemeral) through the library API
//! — the CLI itself rejects port 0, which the parse tests pin down — and
//! the binary test picks a free port by binding and releasing one.

use hic_cli::{dispatch, parse, CliError, Command};
use hic_obs::expo::{http_get_local, validate_exposition};
use hic_obs::timeseries::SeriesStore;
use hic_obs::{MetricsServer, Sampler};
use std::process::Stdio;
use std::time::Duration;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn metrics_endpoint_serves_valid_exposition_during_a_live_batch() {
    // The same wiring `hic batch --serve-metrics` sets up, with an
    // ephemeral port so the test never collides.
    let reg = hic_obs::global().clone();
    let store = SeriesStore::new(256);
    let mut sampler = Sampler::start(reg.clone(), store.clone(), Duration::from_millis(5));
    let mut srv = MetricsServer::start(reg, Some(store.clone()), 0).expect("bind ephemeral");
    let port = srv.port();

    // Scrape while the batch DAG is executing on another thread.
    let mid_run = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut opts = hic_pipeline::BatchOptions::new(vec!["canny".into()], None);
            opts.jobs = Some(2);
            hic_pipeline::run_batch(&opts).expect("batch runs")
        });
        let mut bodies = Vec::new();
        while !worker.is_finished() {
            bodies.push(http_get_local(port, "/metrics").expect("scrape"));
            std::thread::sleep(Duration::from_millis(5));
        }
        worker.join().unwrap();
        bodies
    });

    // Every mid-run scrape is valid exposition; and the pipeline gauges
    // from the pool showed up once jobs started.
    assert!(!mid_run.is_empty(), "at least one scrape landed mid-run");
    for body in &mid_run {
        validate_exposition(body).unwrap_or_else(|e| panic!("invalid exposition: {e}"));
        assert!(body.contains("hic_up 1"), "{body}");
    }
    let last_mid = mid_run.last().unwrap();
    assert!(
        last_mid.contains("hic_pipeline_jobs_completed"),
        "pool counters must be visible mid-run: {last_mid}"
    );

    // The final scrape reflects the finished run and the sampler's
    // series-derived rates.
    sampler.stop();
    let final_body = http_get_local(port, "/metrics").expect("final scrape");
    validate_exposition(&final_body).unwrap();
    assert!(
        final_body.contains("hic_pipeline_queue_depth"),
        "{final_body}"
    );
    // Exposition ordering is stable: two scrapes of a quiesced registry
    // list metrics identically.
    let again = http_get_local(port, "/metrics").expect("repeat scrape");
    let names = |b: &str| -> Vec<String> {
        b.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| l.split([' ', '{']).next().unwrap().to_string())
            .collect()
    };
    assert_eq!(names(&final_body), names(&again));
    srv.stop();
}

#[test]
fn hic_batch_serve_metrics_exposes_valid_exposition() {
    let cache = std::env::temp_dir().join(format!("hic-metrics-bin-{}", std::process::id()));
    // The port is free when released, but another process may take it
    // before `hic` binds: retry a bind failure on a fresh port.
    for _attempt in 0..5 {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("ephemeral port")
            .port();
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hic"))
            .args(["batch", "canny", "--serve-metrics", &port.to_string()])
            .args(["--linger-ms", "1500", "--json", "--cache-dir"])
            .arg(&cache)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hic runs");
        // Scrape until the pipeline's metrics show up or `hic` exits.
        let mut body = None;
        while child.try_wait().expect("poll hic").is_none() {
            if let Ok(b) = http_get_local(port, "/metrics") {
                let done = b.contains("hic_pipeline_");
                body = Some(b);
                if done {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("hic finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let Some(body) = body else {
            assert!(stderr.contains("in use"), "hic failed: {stderr}");
            continue;
        };
        let _ = std::fs::remove_dir_all(&cache);
        assert!(out.status.success(), "{stderr}");
        validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}"));
        let names: Vec<&str> = body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split([' ', '{']).next().unwrap())
            .collect();
        assert!(names.contains(&"hic_up"), "{body}");
        assert!(
            names.iter().any(|n| n.starts_with("hic_pipeline_")),
            "{body}"
        );
        let doc = serde_json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8 stdout"))
            .expect("stdout parses as JSON");
        assert_eq!(doc["schema"], "hic-batch/v1");
        return;
    }
    panic!("no port could be bound in 5 attempts");
}

#[test]
fn telemetry_flags_parse_and_default() {
    match parse(&argv("batch jpeg --serve-metrics 9100 --linger-ms 250")).unwrap() {
        Command::Batch {
            serve_metrics,
            linger_ms,
            ..
        } => {
            assert_eq!(serve_metrics, Some(9100));
            assert_eq!(linger_ms, 250);
        }
        other => panic!("expected Batch, got {other:?}"),
    }
    match parse(&argv("batch jpeg")).unwrap() {
        Command::Batch {
            serve_metrics,
            linger_ms,
            ..
        } => {
            assert_eq!(serve_metrics, None);
            assert_eq!(linger_ms, 0);
        }
        other => panic!("expected Batch, got {other:?}"),
    }
    match parse(&argv("top canny jpeg --jobs 2 --interval-ms 50")).unwrap() {
        Command::Top {
            apps,
            jobs,
            interval_ms,
            ..
        } => {
            assert_eq!(apps, vec!["canny".to_string(), "jpeg".to_string()]);
            assert_eq!(jobs, Some(2));
            assert_eq!(interval_ms, 50);
        }
        other => panic!("expected Top, got {other:?}"),
    }
}

#[test]
fn bad_telemetry_flags_are_usage_errors_with_exit_2() {
    for bad in [
        "batch jpeg --serve-metrics 0",
        "batch jpeg --serve-metrics lots",
        "batch jpeg --serve-metrics -1",
        "batch jpeg --serve-metrics 70000",
        "batch jpeg --linger-ms nope",
        "top",
        "top doom",
        "top canny --interval-ms 0",
        "top canny --interval-ms fast",
        "trace canny --sample 0",
        "trace canny --sample -3",
    ] {
        assert!(
            matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
            "'{bad}' must be a usage error"
        );
        let f = dispatch(&argv(bad)).unwrap_err();
        assert_eq!(f.exit_code, 2, "'{bad}' must exit 2");
        assert!(f.show_usage, "'{bad}' must print usage");
    }
}
