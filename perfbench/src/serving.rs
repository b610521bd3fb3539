//! The serving probe of the traced `campaign_full` run.
//!
//! The `serve` workload — a closed-loop `POST /predict` load as a gated
//! workload of its own — is not in the benchmark: at the default pool
//! width its throughput and cold-boot time spread by ~30 % between runs on
//! a 2-vCPU host (every request pays the pool's per-dispatch thread
//! spawns, and the vCPU halts and wake-ups that causes turn the host's
//! scheduling delay into latency), which is more than any bound a later
//! change could be held to. The serving layers are still measured here,
//! after the traced phases and outside the traced total: a server boots
//! over the campaign's store and answers a fixed, seeded request mix.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use wade_core::CampaignData;
use wade_serve::{
    feature_set_label, parse_model_kind, read_response, request_for, ModelRegistry, PredictRequest,
    PredictResponse, ServeConfig, Server,
};
use wade_store::ArtifactStore;

use crate::metrics::Report;
use crate::tracing::timed;
use crate::{host, Ctx};

/// Requests of the probe's load.
const REQUESTS: u64 = 4000;
/// Requests replayed directly through the model layer.
const DIRECT_REQUESTS: u64 = 1000;

/// One reply of the load.
struct Reply {
    k: u64,
    status: u16,
    latency_us: f64,
    body: Vec<u8>,
}

/// One connection's closed loop: requests `k ≡ t (mod connections)`
/// below `REQUESTS`, each sent when the previous reply arrived.
fn client(
    addr: SocketAddr,
    data: &CampaignData,
    seed: u64,
    t: u64,
    connections: u64,
) -> Vec<Reply> {
    let connect = || {
        let stream = TcpStream::connect(addr).ok()?;
        // Head and body go out as two writes; without this the second
        // waits for the server's delayed acknowledgement.
        stream.set_nodelay(true).ok()?;
        Some(stream)
    };
    let mut replies = Vec::new();
    let mut stream = connect();
    let mut k = t;
    while k < REQUESTS {
        let request = request_for(data, seed, k);
        let body = serde_json::to_string(&request).expect("request serializes");
        let head = format!(
            "POST /predict HTTP/1.1\r\nHost: wade\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let sent = Instant::now();
        let exchange = match stream.as_mut() {
            Some(s) => s
                .write_all(head.as_bytes())
                .and_then(|()| s.write_all(body.as_bytes()))
                .and_then(|()| read_response(s)),
            None => Err(std::io::Error::other("not connected")),
        };
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        match exchange {
            Ok((status, body)) => replies.push(Reply {
                k,
                status,
                latency_us,
                body,
            }),
            Err(_) => {
                replies.push(Reply {
                    k,
                    status: 0,
                    latency_us,
                    body: Vec::new(),
                });
                stream = connect();
            }
        }
        k += connections;
    }
    replies
}

/// The rows of a generated request, as the model layer takes them.
fn inputs(
    request: &PredictRequest,
) -> Vec<(wade_features::FeatureVector, wade_dram::OperatingPoint)> {
    request
        .rows
        .iter()
        .map(|r| r.clone().into_input().expect("generated rows are valid"))
        .collect()
}

/// The body a correct server answers: `ErrorModel::predict_rows`
/// serialized.
fn golden(registry: &ModelRegistry, request: &PredictRequest) -> Vec<u8> {
    let kind = parse_model_kind(&request.model).expect("generated label");
    let response = PredictResponse {
        model: kind.label().to_string(),
        set: feature_set_label(registry.set()).to_string(),
        rows: registry.model(kind).predict_rows(&inputs(request)),
    };
    serde_json::to_string(&response)
        .expect("response serializes")
        .into_bytes()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Boots a server over `data` in a fresh store, drives the seeded mix
/// through it from `min(nproc, 2)` keep-alive connections, checks every
/// reply and sets the `serve.*` and `ml.predict*` metrics.
pub fn probe(ctx: &Ctx, data: &CampaignData, report: &mut Report) {
    let seed = ctx.args.seed;
    let store = Arc::new(ArtifactStore::open(ctx.dir("serve-store")));
    let (server, boot) = timed(|| Server::start(ServeConfig::default(), data.clone(), Some(store)));
    let Ok(mut server) = server else {
        report.check(false, "the server did not bind");
        return;
    };
    report.set("serve.boot_s", boot.wall_s);

    let connections = host::nproc().min(2) as u64;
    let batches0 = server.metrics().batches();
    let addr = server.addr();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|t| scope.spawn(move || client(addr, data, seed, t, connections)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let batches = server.metrics().batches() - batches0;
    replies.sort_by_key(|r| r.k);

    let registry = server.registry().clone();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    let (mut failed, mut mismatched, mut out_of_range, mut rows) = (0u64, 0u64, 0u64, 0u64);
    for reply in &replies {
        if reply.status != 200 {
            failed += 1;
            continue;
        }
        let request = request_for(data, seed, reply.k);
        rows += request.rows.len() as u64;
        // Predictions are byte-identical at any pool width; one thread
        // keeps the reference cheap.
        if one_thread.install(|| golden(&registry, &request)) != reply.body {
            mismatched += 1;
        }
        let parsed = std::str::from_utf8(&reply.body)
            .ok()
            .and_then(|text| serde_json::from_str::<PredictResponse>(text).ok());
        let in_range = parsed.is_some_and(|p| {
            p.rows.iter().all(|row| {
                (0.0..=1.0).contains(&row.pue)
                    && row.wer_total >= 0.0
                    && row.wer_per_rank.iter().all(|w| *w >= 0.0)
            })
        });
        out_of_range += u64::from(!in_range);
    }
    report.ops(replies.len() as u64, failed);
    report.check(replies.len() as u64 == REQUESTS, "the load lost requests");
    report.check(
        failed == 0,
        format!("{failed} of {} requests did not get a 200", replies.len()),
    );
    report.check(
        mismatched == 0,
        format!("{mismatched} replies differ from predict_rows"),
    );
    report.check(
        out_of_range == 0,
        format!("{out_of_range} replies have PUE outside [0, 1] or WER < 0"),
    );

    let mut latencies: Vec<f64> = replies
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| r.latency_us)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50_us = percentile(&latencies, 50.0);

    // The model and protocol costs of the same requests, measured directly.
    let requests: Vec<PredictRequest> = (0..DIRECT_REQUESTS)
        .map(|k| request_for(data, seed, k))
        .collect();
    let predict_each = |req: &PredictRequest| {
        let model = registry.model(parse_model_kind(&req.model).expect("generated label"));
        let rows = inputs(req);
        let t = Instant::now();
        std::hint::black_box(model.predict_rows(&rows));
        t.elapsed().as_secs_f64()
    };
    let predict_us = requests.iter().map(predict_each).sum::<f64>() * 1e6 / DIRECT_REQUESTS as f64;
    let predict_1t_us = one_thread.install(|| requests.iter().map(predict_each).sum::<f64>()) * 1e6
        / DIRECT_REQUESTS as f64;
    let bodies: Vec<String> = requests
        .iter()
        .map(|req| {
            String::from_utf8(one_thread.install(|| golden(&registry, req))).unwrap_or_default()
        })
        .collect();
    let t = Instant::now();
    for (req, body) in requests.iter().zip(&bodies) {
        std::hint::black_box(serde_json::to_string(req).expect("request serializes"));
        std::hint::black_box(serde_json::from_str::<PredictResponse>(body).ok());
    }
    let protocol_us = t.elapsed().as_secs_f64() * 1e6 / DIRECT_REQUESTS as f64;
    server.shutdown();
    eprintln!(
        "serving probe: boot {:.3}s, {} requests over {connections} connections, p50 {:.3} ms",
        boot.wall_s,
        replies.len(),
        p50_us / 1e3
    );

    report.set("ml.predict_us", predict_us);
    report.set("ml.predict_1t_us", predict_1t_us);
    report.set("serve.protocol_us", protocol_us);
    report.set("serve.transport_us", p50_us - predict_us - protocol_us);
    report.set("serve.p99_ms", percentile(&latencies, 99.0) / 1e3);
    report.set("serve.batch_rows_mean", rows as f64 / batches.max(1) as f64);
}
