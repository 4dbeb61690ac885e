(** The replacement cores. Each keeps one block table, packed key to
    dense id, holding every block it remembers, resident or ghost; every
    per-block column is indexed by the id, and an id is released when
    the core forgets its block. The most ids a table holds at capacity
    [c]:

    - LRU, MRU, FIFO, CLOCK, LRU-2, RAND: [c + 1];
    - 2Q: [c] plus its ghost queue, [max 1 (c / 2)];
    - ARC: [3c] (T1 and T2 share [c]; B1 and B2 are each trimmed to [c]);
    - AWRP, PERCEPTRON: [2c] (a ghost keeps its resident id);
    - OPT: the future's distinct blocks, all given ids up front.

    Stock eight (victim behaviour pinned by the record-twin lockstep in
    `bench check`): *)

module Lru : Policy_core.CORE

module Mru : Policy_core.CORE

module Fifo : Policy_core.CORE

module Clock : Policy_core.CORE

module Lru_2 : Policy_core.CORE

module Rand : Policy_core.CORE

module Opt : Policy_core.CORE

module Two_q : Policy_core.CORE

(** Adaptive three: *)

module Arc : Policy_core.CORE

module Awrp : Policy_core.CORE

module Perceptron : Policy_core.CORE
