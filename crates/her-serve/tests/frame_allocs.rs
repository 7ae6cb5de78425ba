//! A frame header's length is the peer's claim, not a promise: reading a
//! frame commits memory only as its body arrives. A header claiming
//! 200 MiB followed by a close is a torn message, and reading it must not
//! allocate anywhere near the claim first. The same holds for the element
//! counts inside a payload.
//!
//! Own test binary: the counting allocator below is process-global.

use her_serve::flight_dump::DumpRecord;
use her_serve::proto::{read_message, write_message};
use her_serve::{Reply, WireError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread asked for (tests run on
    /// their own threads).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is raising a const-initialised, destructor-free thread-local maximum,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(new_size)));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the largest single allocation it made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn a_huge_length_claim_then_close_is_torn_without_allocating_the_claim() {
    let claimed: u32 = 200 << 20;
    let mut bytes = claimed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0; 4]); // the checksum, never reached
    bytes.extend_from_slice(b"a few body bytes, then the peer closes");
    let (got, largest) = largest_allocation(|| read_message(&mut &bytes[..]));
    assert!(matches!(got, Err(WireError::Torn)), "{got:?}");
    assert!(
        largest < 1 << 20,
        "allocated {largest} bytes for a frame whose body never arrived"
    );
}

/// A frame several read chunks long still reads back whole, and a cut
/// anywhere in it, on and around chunk boundaries too, is torn.
#[test]
fn a_frame_longer_than_one_read_chunk_reads_back_whole() {
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    let mut wire = Vec::new();
    write_message(&mut wire, &payload).expect("write to a Vec");
    assert_eq!(read_message(&mut &wire[..]).expect("whole frame"), payload);
    for cut in [9, 64 << 10, (64 << 10) + 8, (128 << 10) + 8, wire.len() - 1] {
        let got = read_message(&mut &wire[..cut]);
        assert!(matches!(got, Err(WireError::Torn)), "cut {cut}: {got:?}");
    }
}

/// `bytes` with the little-endian u32 at `at` — an element count —
/// replaced by a claim of `u32::MAX` elements the payload cannot hold.
fn claim_huge(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes
}

/// Every list decoder reserves for what the payload can hold, not for
/// the count the peer claims: a short payload claiming `u32::MAX`
/// elements fails to decode without a large allocation.
#[test]
fn a_huge_element_count_in_a_short_payload_is_refused_without_allocating_it() {
    let empty_vpair = Reply::Vpair { matches: vec![], unresolved: vec![], exhausted: None, trace_id: 0 };
    let empty_apair = Reply::Apair { matches: vec![], exhausted: None, trace_id: 0 };
    let empty_trace = Reply::Trace { trace_id: 0, events: vec![] };
    let empty_flight = Reply::Flight { records: vec![] };
    let empty_dump = DumpRecord { record: Default::default(), events: vec![] };
    // Each count sits after the version word and the reply tag (and a
    // trace's id); a dump's event count is its last word.
    let dump = empty_dump.encode();
    let dump_events = dump.len() - 4;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("vertices", claim_huge(empty_vpair.encode(), 5)),
        ("pairs", claim_huge(empty_apair.encode(), 5)),
        ("events", claim_huge(empty_trace.encode(), 13)),
        ("flight records", claim_huge(empty_flight.encode(), 5)),
    ];
    for (what, bytes) in cases {
        let (got, largest) = largest_allocation(|| Reply::decode(&bytes));
        assert!(got.is_err(), "{what}: {got:?}");
        assert!(largest < 64 << 10, "{what}: allocated {largest} bytes for a {}-byte payload", bytes.len());
    }
    let bytes = claim_huge(dump, dump_events);
    let (got, largest) = largest_allocation(|| DumpRecord::decode(&bytes));
    assert!(got.is_err(), "dump: {got:?}");
    assert!(largest < 64 << 10, "dump: allocated {largest} bytes");
}
