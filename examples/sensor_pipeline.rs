//! Sensor-based environment monitoring — the paper's second motivating
//! application (§1): pipeline-health monitoring with correlated sensors.
//!
//! Two sensor feeds per pipeline segment (temperature and pressure) are
//! joined within a time window; a filter raises alerts on suspicious
//! combinations. This demonstrates the paper's §2.1 observation about
//! blocking operators: when the pressure feed disconnects, the Join has
//! nothing to match against — unlike the Union-based monitoring example,
//! the joined path produces *no* new results during the failure, while a
//! parallel union-based heartbeat path keeps flowing tentatively. Both are
//! corrected after the feed returns ("technicians dispatched to fix raised
//! problems can be quickly re-assigned as needed").
//!
//! Run with: `cargo run --release --example sensor_pipeline`

use borealis::prelude::*;

fn main() {
    let mut q = QueryBuilder::new();
    // Sensor records: [segment_id, reading].
    let temperature = q.source("temperature");
    let pressure = q.source("pressure");

    // Path 1 (blocking): join temperature and pressure per segment within
    // 200 ms, then alert when both readings are in the anomalous band.
    let joined = q.join(
        "temp-pressure",
        temperature,
        pressure,
        JoinSpec {
            window: Duration::from_millis(200),
            left_key: Expr::field(0),
            right_key: Expr::field(0),
            max_state: Some(500),
        },
    );
    let alerts = q.filter(
        "anomalies",
        joined,
        // joined tuple: [seg, temp_reading, seg, pressure_reading]
        Expr::and(
            Expr::gt(Expr::field(1), Expr::float(0.75)),
            Expr::gt(Expr::field(3), Expr::float(0.75)),
        ),
    );
    q.output(alerts);

    // Path 2 (non-blocking): union of both feeds aggregated into per-window
    // liveness counts — keeps producing (tentatively) when one feed dies.
    let both = q.union("all-readings", &[temperature, pressure]);
    let liveness = q.aggregate(
        "liveness",
        both,
        AggregateSpec {
            window: Duration::from_secs(1),
            slide: Duration::from_secs(1),
            group_by: vec![],
            aggs: vec![AggFn::count()],
        },
    );
    q.output(liveness);

    let diagram = q.build().expect("valid diagram");
    let (alerts, liveness) = (alerts.id(), liveness.id());
    let cfg = DpcConfig {
        // Technicians "may be able to wait tens of seconds for more
        // accurate results": a generous 5-second budget.
        total_delay: Duration::from_secs(5),
        ..DpcConfig::default()
    };
    let plan = plan_deployment(&diagram, &DeploymentSpec::single(2), &cfg).expect("plannable");

    let sensor = |stream: StreamHandle| SourceConfig {
        stream: stream.id(),
        rate: 150.0,
        boundary_interval: Duration::from_millis(100),
        batch_period: Duration::from_millis(10),
        values: ValueGen::Reading {
            keys: 8,
            amplitude: 1.0,
        },
        limit: None,
    };
    let mut sys = SystemBuilder::new(23)
        .source(sensor(temperature))
        .source(sensor(pressure))
        .plan(plan)
        .client_streams(vec![alerts, liveness])
        .fault(FaultSpec::DisconnectSource {
            // The pressure feed disconnects for 10 seconds.
            stream: pressure.id(),
            frag: 0,
            from: Time::from_secs(10),
            to: Time::from_secs(20),
        })
        .build();
    sys.run_until(Time::from_secs(40));

    let (join_stable, join_tentative) = sys.metrics.with(alerts, |m| (m.n_stable, m.n_tentative));
    let (live_stable, live_tentative, live_recdone) = sys
        .metrics
        .with(liveness, |m| (m.n_stable, m.n_tentative, m.n_rec_done));

    println!("sensor-pipeline run (pressure feed down 10s-20s):");
    println!("  joined-anomaly path : {join_stable} stable, {join_tentative} tentative");
    println!("  liveness path       : {live_stable} stable, {live_tentative} tentative, {live_recdone} corrected");
    assert!(
        live_tentative > 0,
        "the union path must keep producing tentatively during the failure"
    );
    assert!(live_recdone >= 1, "the liveness stream must be corrected");
    assert_eq!(sys.metrics.total_dup_stable(), 0);
    println!("\nthe blocking join paused while pressure was gone; the union-based");
    println!("liveness counts flowed tentatively and were corrected afterwards.");
}
