//! A live cluster metrics dashboard: launch a two-node cluster
//! in-process, push a mixed workload through it (including a submit
//! that crosses nodes via the forward path), then poll every node's
//! wire `QueryMetrics` surface and render the merged view —
//! per-stage pipeline histograms, queue-wait quantiles, tenant
//! counters, and the flight-recorder tail whose trace ids stitch the
//! forwarded job across both nodes.
//!
//! ```text
//! cargo run --release --example cluster_dashboard
//! ```

use beer::cluster::Cluster;
use beer::net::{wire, Client, Ring};
use beer::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn record_trace(code: &LinearCode) -> ProfileTrace {
    let patterns = PatternSet::OneTwo.patterns(code.k());
    let mut backend = AnalyticBackend::new(code.clone());
    ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
}

/// A trace whose fingerprint the named ring member owns.
fn trace_owned_by(ring: &Ring, name: &str) -> ProfileTrace {
    for seed in 0..64 {
        let code = hamming::random_sec(8, &mut StdRng::seed_from_u64(seed));
        let trace = record_trace(&code);
        if ring.owner(trace.fingerprint()).name == name {
            return trace;
        }
    }
    panic!("no trace owned by {name} in 64 tries");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let start_service = || {
        RecoveryService::start(ServiceConfig::new().with_workers(2))
            .map(Arc::new)
            .expect("start service")
    };
    let cluster = Cluster::launch(vec![start_service(), start_service()])?;
    println!(
        "cluster up: epoch {}, {} members\n",
        cluster.ring().epoch(),
        cluster.ring().members().len()
    );

    // A workload that exercises every instrumented path: a job owned by
    // each node submitted directly, plus one deliberately submitted to
    // the NON-owner so it rides the forward path — its trace id will
    // appear in both nodes' flight recorders below.
    let owned_by_0 = trace_owned_by(cluster.ring(), "node-0");
    let owned_by_1 = trace_owned_by(cluster.ring(), "node-1");

    // One connection to node-1 carries both kinds of job: node-1 solves
    // the first itself and proxies the second, under an id of its own.
    let mut client = Client::connect(cluster.addrs()[1].clone(), "acme", "")?;
    let job = client.submit(&owned_by_1)?;
    let _ = client.wait(job)?;

    client.upload_trace(&owned_by_0)?;
    let forwarded = client.submit(&owned_by_0)?;
    let trace_id = forwarded.trace_id;
    let _ = client.wait(forwarded)?;
    // A repeat of the same profile: answered from the owner's cache.
    let repeat = client.submit(&owned_by_0)?;
    let _ = client.wait(repeat)?;
    println!(
        "workload done; the forwarded job's trace id is {trace_id:032x} — \
         look for it on BOTH nodes below\n"
    );

    // The dashboard: poll every node's metrics exposition over the wire
    // and render them side by side.
    for node in cluster.nodes() {
        let mut poller = Client::connect(node.addr(), "dashboard", "")?;
        let text = poller.query_metrics(16)?;
        println!(
            "=== {} ({}) — wire v{}",
            node.name,
            node.addr(),
            wire::WIRE_VERSION
        );
        for line in text.lines() {
            // The full exposition is verbose; a dashboard shows the
            // series that answer "where does the time go".
            let interesting = line.starts_with("histogram pipeline_")
                || line.starts_with("histogram service_")
                || line.starts_with("histogram net_")
                || line.starts_with("counter tenant_")
                || line.starts_with("flight ");
            if interesting {
                println!("  {line}");
            }
        }
        println!();
    }

    cluster.shutdown(Duration::from_secs(2));
    println!("dashboard complete: both nodes reported trace {trace_id:032x}");
    Ok(())
}
