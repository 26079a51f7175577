//! Every [`CheckSink`](pfsim::CheckSink) hook fires: the `pfsim-fuzz
//! --smoke` case mix (200 seeded cases, six-scheme rotation, a finite SLC
//! on odd cases) runs under [`HookCounts`], and a hook the kernel never
//! calls fails here by name.

use pfsim::{HookCounts, System};
use pfsim_check::{FuzzCase, SMOKE_CASES, SMOKE_SEED};
use pfsim_mem::SplitMix64;

#[test]
fn smoke_mix_fires_every_hook() {
    let mut rng = SplitMix64::seed_from_u64(SMOKE_SEED);
    let mut totals: Vec<(&'static str, u64)> = HookCounts::default().counts();
    for i in 0..SMOKE_CASES {
        let case = FuzzCase::draw(&mut rng, i);
        let mut sys = System::new(case.config(), case.workload(&case.ops));
        sys.set_check_sink(Box::new(HookCounts::default()));
        sys.run();
        let sink = sys.take_check_sink().expect("sink installed above");
        let counts = sink
            .into_any()
            .downcast::<HookCounts>()
            .expect("the installed sink is a HookCounts");
        for (total, (_, n)) in totals.iter_mut().zip(counts.counts()) {
            total.1 += n;
        }
    }
    let silent: Vec<&str> = totals
        .iter()
        .filter(|(_, n)| *n == 0)
        .map(|(hook, _)| *hook)
        .collect();
    assert!(silent.is_empty(), "hooks that never fired: {silent:?}");
}
