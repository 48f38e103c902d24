"""Vote aggregation with pluggable matchers: crisp when justified, fuzzy when not.

Each scenario runs the resample-align-vote loop for 1000 rounds on 100
cases with a controlled clusterer, then reports the entropy summary of
the resulting membership-probability matrix:

    H    mean per-case entropy (bits): 0 = crisp, log2(K) = maximal doubt
    RMC  relative model complexity
    I    information carried by the average cluster shares
    CIC  information minus uncertainty: the model-support score

A sound aggregation should score justified structure high and random
structure low -- regardless of how unequal the cluster sizes are.
"""

import numpy as np

import truematch as tm

N, ROUNDS = 100, 1000
data = np.zeros(N)
truth = tm.build_truth(N, 0.5)


def run(name, clusterer, matcher, seed):
    rng = np.random.default_rng(seed)
    _, probs = tm.mmcc_run(data, clusterer.k, clusterer, matcher, ROUNDS, rng)
    s = tm.cic_stats(probs)
    print(f"{name:34s} {matcher:10s} H={s.uncertainty:5.3f} RMC={s.complexity:6.4f} "
          f"I={s.information:6.3f} CIC={s.cic:7.3f}")
    return s


print(f"{'scenario':34s} {'matcher':10s} entropy summary")
print("-" * 78)
run("single cluster (K=1)", tm.FictitiousClusterer([[1.0]]), "truematch", 1)
run("justified 50:50", tm.FictitiousClusterer(np.eye(2), true_classes=truth), "truematch", 2)
run("random 50:50", tm.FictitiousClusterer([[0.5, 0.5]]), "truematch", 3)
print()
run("random 99:1", tm.FictitiousClusterer([[0.99, 0.01]]), "truematch", 4)
run("random 99:1", tm.FictitiousClusterer([[0.99, 0.01]]), "tracemax", 5)

print("""
The headline contrast is the random 99:1 pair of rows.  Under the
residual matcher the unjustified split fuzzes out completely (H ~ 1 bit,
strongly negative CIC).  Under tracemax the same meaningless model looks
almost crisp (H ~ 0.08): the matcher glues the big random cluster to the
same column every round, so every case accumulates ~99% of its votes in
one place.  If cases are then assigned by maximum probability, all land
in a single cluster -- a degenerate 2-cluster model that scores almost as
well as no clustering at all.
""")

print("a real base clusterer (k-means) on structured vs structureless data")
print("-" * 78)
rng = np.random.default_rng(11)
blobs = np.r_[rng.normal(0.0, 0.4, 50), rng.normal(8.0, 0.4, 50)]
flat = rng.uniform(0.0, 1.0, 100)
for name, points in (("two separated blobs", blobs), ("uniform noise", flat)):
    run_rng = np.random.default_rng(12)
    _, probs = tm.mmcc_run(points, 2, tm.LloydClusterer(), "truematch", 300, run_rng)
    s = tm.cic_stats(probs)
    print(f"{name:34s} {'truematch':10s} H={s.uncertainty:5.3f} CIC={s.cic:7.3f}")

print("""
Separable blobs aggregate crisply (H ~ 0); on structureless data the
boundary cases keep flipping sides across resamples and the membership
matrix shows the doubt.
""")
