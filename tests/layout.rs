//! Tuple layout, and the two `Values` representations (inline for up to
//! two attributes, shared beyond) on every path that turns tuples into
//! bytes: TCP frames and the durable store's input log and snapshots.

use borealis::dpc::{decode_frame, encode_frame, DurabilityConfig, NetMsg, NodeDisk, WireMsg};
use borealis::ops::{BatchEmitter, Operator, SUnion};
use borealis::prelude::*;
use borealis::types::{BatchView, Values};
use std::mem::size_of;

#[test]
fn value_is_16_bytes_and_tuple_at_most_64() {
    assert_eq!(size_of::<Value>(), 16);
    assert!(
        size_of::<Tuple>() <= 64,
        "Tuple is {} bytes",
        size_of::<Tuple>()
    );
}

/// Stable tuples of 0, 1, 2, 3 and 5 attributes (every value type, strings
/// included), then a boundary that closes their SUnion bucket.
fn rows() -> Vec<Tuple> {
    let attr = |i: usize| match i % 4 {
        0 => Value::Int(-(i as i64) - 7),
        1 => Value::str(format!("attr-{i}")),
        2 => Value::Float(i as f64 + 0.25),
        _ => Value::Bool(i % 2 == 1),
    };
    let mut rows: Vec<Tuple> = [0usize, 1, 2, 3, 5]
        .iter()
        .enumerate()
        .map(|(k, &width)| {
            let values: Values = (k..k + width).map(attr).collect();
            assert_eq!(values.len(), width);
            assert_eq!(values.is_shared(), width > 2, "width {width}");
            let mut t = Tuple::insertion(
                TupleId(k as u64 + 1),
                Time::from_millis(10 + k as u64),
                values,
            );
            t.origin = k as u16;
            t
        })
        .collect();
    rows.push(Tuple::boundary(TupleId::NONE, Time::from_secs(1)));
    rows
}

#[test]
fn every_width_round_trips_through_frames_and_the_durable_store() {
    let batch = TupleBatch::from_vec(rows());
    let stream = StreamId(3);

    // TCP frame.
    let mut buf = Vec::new();
    let msg = WireMsg::Net(NetMsg::Data {
        stream,
        tuples: BatchView::whole(batch.clone()),
    });
    let n = encode_frame(&mut buf, NodeId(1), NodeId(2), &msg);
    let (_, _, decoded, used) = decode_frame(&buf)
        .expect("frame decodes")
        .expect("whole frame");
    assert_eq!(used, n);
    let WireMsg::Net(NetMsg::Data { tuples, .. }) = decoded else {
        panic!("decoded a different message");
    };
    assert_eq!(tuples.to_batch(), batch);
    assert!(tuples
        .iter()
        .all(|t| t.values.is_shared() == (t.values.len() > 2)));

    // Durable store: an SUnion holding the data tuples in an open bucket
    // goes into a snapshot, and the batch into the input log after it.
    let dir = std::env::temp_dir().join(format!("borealis-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sunion = SUnion::new(SUnionConfig::new(1));
    let mut sink = BatchEmitter::new();
    let data = batch.slice(0..batch.len() - 1);
    sunion.process_batch(0, &data, Time::from_millis(1), &mut sink);
    assert_eq!(sunion.buffered_tuples(), data.len());
    let mut disk = NodeDisk::open(&DurabilityConfig::new(&dir)).expect("store opens");
    disk.checkpoint(vec![(sunion.snapshot_codec(), sunion.checkpoint())], &[]);
    disk.append_input(stream, &BatchView::whole(batch.clone()));
    drop(disk);
    let image = NodeDisk::open(&DurabilityConfig::new(&dir))
        .expect("store reopens")
        .recover()
        .expect("recovers")
        .expect("a snapshot");
    assert_eq!(image.replay.len(), 1);
    assert_eq!(image.replay[0], (stream, batch.clone()));

    // The snapshot holds one length-prefixed operator record.
    let mut r = borealis::types::wire::Reader::new(&image.ops_bytes);
    assert_eq!(r.u32().unwrap(), 1);
    let len = r.u32().unwrap() as usize;
    let snap = (sunion.snapshot_codec().decode)(&mut borealis::types::wire::Reader::new(
        r.bytes(len).unwrap(),
    ))
    .expect("snapshot decodes");
    let mut restored = SUnion::new(SUnionConfig::new(1));
    restored.restore(&snap);
    let close = batch.slice(batch.len() - 1..batch.len());
    let released = |s: &mut SUnion| {
        let mut out = BatchEmitter::new();
        s.process_batch(0, &close, Time::from_millis(2), &mut out);
        out.take_tuples().0
    };
    let want = released(&mut sunion);
    assert_eq!(want.iter().filter(|t| t.is_data()).count(), data.len());
    assert_eq!(released(&mut restored), want);
    let _ = std::fs::remove_dir_all(&dir);
}
