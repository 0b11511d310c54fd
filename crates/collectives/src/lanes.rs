//! The one place a collective fans out over the PDR's `P` channels.

/// Runs `f` once per item of `inputs`, one lane each, and returns the results
/// in lane order. The caller is lane 0: the first item runs inline, every
/// later one on a scoped thread, so `P` lanes cost `P − 1` spawns and a
/// single lane costs none. A panicking lane panics the caller once every
/// lane has been joined.
pub fn run_lanes<I, R, F>(inputs: impl IntoIterator<Item = I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = inputs.map(|input| scope.spawn(move || f(input))).collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.push(f(first));
        results.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("lane worker panicked")),
        );
        results
    })
}
