// Fixture: serving-path matcher calls that DROP the request budget —
// unbounded matcher work under an admission slot. Two unwaived sites
// plus one waived warmup path.

impl Handler {
    fn run_vpair(&self, tuple: TupleRef) -> Reply {
        let run = self.her.try_vpair(tuple, MatcherOptions::default());
        reply(run)
    }

    fn run_apair(&self) -> Reply {
        let ((matches, exhausted, _), _) =
            self.pool.run(Default::default(), CancelToken::new(), self.ctx, |m| {
                self.her.apair_with(m)
            });
        reply2(matches, exhausted)
    }

    fn warmup(&self) {
        // #[allow(her::budget_not_threaded)] — startup prewarm over a bounded seed set
        let _ = self.her.try_apair_stats(MatcherOptions::default());
    }
}
