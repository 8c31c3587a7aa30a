"""Workload definitions and the seeded input generator.

Each workload below is one set of inputs for the driver.  The seed picks
the merchant of every payment and which positions of the stream replay an
already-spent coin and which coin they replay.  The program receives only
the generated input file.

Every message crosses real loopback TCP between endpoints of one process;
no delay is injected anywhere, so the message delay on every path is the
kernel's loopback delay plus the runtime's own queueing.

In every payment stream, one payment in each block of 16 replays a coin
that was already spent, at a different merchant than the one that accepted
it.  The system must refuse it with a DoubleSpendProof.  That refusal path
loads the witness and merchant differently from the accept path: a table
hit and proof extraction instead of signing.
"""

from dataclasses import dataclass

# The driver's fixed system (driver.cpp): eight merchant machines, each a
# storefront and a witness, share two worker threads with the broker and
# sixteen client lanes.  The generator needs the lane and merchant counts
# to lay out the stream; the driver refuses an op outside them.
MERCHANTS = 8
# Sixteen lanes keep both workers busy, so every phase runs at capacity.
# With fewer lanes than the workers can serve, every payment waited on
# thread wake-ups, and on a shared 4-vCPU host those waits followed the
# neighbours' load (README, "Workloads").
LANES = 16
REPLAY_EVERY = 16


@dataclass(frozen=True)
class Workload:
    # closed: payments run by a closed loop over the lanes, after the
    #         coins are withdrawn in set-up.
    # rounds: rounds of withdraw-then-pay over the lanes, each ended by a
    #         deposit of everything accepted; stores are durable.
    mode: str
    # closed: payments per --seconds of stream (sized from this commit's
    # throughput so the payment phase lasts about --seconds).
    closed_per_s: int = 0
    # rounds: payments per round and number of rounds per 10 s.
    round_ops: int = 0
    rounds_per_10s: int = 0
    # Untimed payments run as a closed loop before the timed region: they
    # open the connections and warm the caches the timed payments use.
    warmup_ops: int = 0


WORKLOADS = {
    # pay_closed — closed loop, 16 payments in flight (one per lane) on the
    # two workers, the paper's production 1024-bit group, non-durable; coins
    # are withdrawn during set-up.
    # Why: crypto in the merchant and witness handlers, plus contention
    # between them, does almost all the work (Table 1: merchant 7 Exp +
    # 3 Ver, witness 7 Exp + 2 Sig + 1 Ver).  Loads bn/group, sig, nizk,
    # ecash and the actors' strands; transport is a small share and store
    # is bypassed.  This is where bn/group speedups and lock/serializer
    # removal show.  Message delay: loopback TCP only, none injected.
    "pay_closed": Workload(mode="closed", closed_per_s=150, warmup_ops=96),
    # bank_durable — the lanes run rounds with durable stores on the 1024-bit
    # group.  In each round every lane withdraws the coin for each of its
    # payments and then pays it; then every merchant flushes its deposits at
    # once, and the round ends when the broker has acknowledged every
    # deposit.  Four rounds of 272 payments per 10 s of --seconds give at
    # least 1,020 withdrawals, so even a p99 has 10 samples beyond it, and
    # the rates' median over rounds has eight rounds at 20 s.
    # Why: the single broker strand (blindsig issuance, deposit
    # verification) and store (LogStore journaling and group commit) do the
    # work; merchant and witness handlers are a minor share.  A round's
    # deposits (a few hundred) keep the broker well under the 4 s RPC
    # attempt timeout, so the deposit phase measures the broker, not the
    # retry timer (see README: known defect).  Bypasses no layer.  Message
    # delay: loopback TCP only, none injected.
    "bank_durable": Workload(mode="rounds", round_ops=272, rounds_per_10s=4),
    # An open loop (Poisson arrivals; 256-bit at 1,000/s, then 1024-bit at
    # 140/s and 110/s) was tried and left out: on a shared 4-vCPU host its
    # latencies varied up to 2x between runs, beyond any bound the
    # benchmark may set (README, "Workloads").
}


class SplitMix64:
    """Small, portable PRNG: the same seed gives the same stream on every
    Python version and platform."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n


def _stream(rng, n, lanes, merchants, earlier):
    """n payments in blocks of REPLAY_EVERY: one seed-chosen position per
    block replays a coin already spent at another merchant.  `earlier(i)` is
    the range of ops whose coin op i may replay: ones that have finished
    before op i starts.  Returns [lane, merchant, ref] per op."""
    ops = [[i % lanes, rng.below(merchants), -1] for i in range(n)]
    for block in range(0, n, REPLAY_EVERY):
        i = block + rng.below(min(REPLAY_EVERY, n - block))
        candidates = earlier(i)
        if not candidates:
            continue
        while True:  # at most one op in 16 is a replay: few rejections
            j = candidates[rng.below(len(candidates))]
            if ops[j][2] < 0:
                break
        merchant = rng.below(merchants - 1)
        if merchant >= ops[j][1]:
            merchant += 1  # any merchant but the one that accepted it
        ops[i][1] = merchant
        ops[i][2] = j
    return ops


def generate(workload, seed, seconds):
    """The driver's input for one run, as text."""
    w = WORKLOADS[workload]
    rng = SplitMix64(seed * 0x100000001B3 + sum(map(ord, workload)))
    lines = []
    # Warm-up payments come first, marked with round -1.
    warm = w.warmup_ops
    if w.mode == "closed":
        n = warm + w.closed_per_s * seconds
        # Same lane = same client, whose earlier payments have completed.
        stream = _stream(rng, n, LANES, MERCHANTS,
                         lambda i: range(i % LANES, i, LANES))
        lines = [f"op {-1 if i < warm else 0} {lane} {m} {ref}"
                 for i, (lane, m, ref) in enumerate(stream)]
    else:
        rounds = max(1, (w.rounds_per_10s * seconds + 9) // 10)
        for r in range(rounds):
            base = r * w.round_ops
            stream = _stream(rng, w.round_ops, LANES, MERCHANTS,
                             lambda i: range(i % LANES, i, LANES))
            lines += [f"op {r} {lane} {m} {ref + base if ref >= 0 else -1}"
                      for lane, m, ref in stream]
    header = [f"seed {seed}", f"mode {w.mode}"]
    return "\n".join(header + lines) + "\n"
