(** Domain-parallel fleet simulation: N client machines, one shared
    server cache, a network model, and a conservative parallel
    discrete-event execution that is byte-identical at every worker
    count.

    A scenario with a [fleet] section ({!Acfc_scenario.Scenario.fleet})
    describes [clients] identical client machines, each running the
    scenario's workload list against its own columnar cache and
    analytically-modelled local disks. Workload file slots below
    [shared_files] name files held by the shared server: a local-cache
    miss on one becomes a client→server request that crosses the
    network (per-link latency + bandwidth), is looked up in the server
    cache, queues FCFS on the server drive on a miss, and returns.

    {2 Execution and determinism}

    Each client's engine runs on a fixed worker domain (client [c] on
    worker [c mod workers], pinned for the whole run by
    {!Acfc_par.Team}), advancing one lookahead epoch at a time.
    Requests accumulate in per-domain SPSC {!Batch} buffers and cross
    to the server only at epoch barriers, where the coordinator merges
    them in [(send time, client id, seq)] order — a pure function of
    simulation state, independent of worker count and of the epoch
    boundary set. With the lookahead capped at twice the minimum link
    latency, no response can land inside the epoch that sent its
    request, so conservative epoch execution is exact. Consequently
    {!run}'s report (and {!pp}'s rendering of it) is byte-identical at
    every [jobs] value; the sequential [jobs = 1] path runs the same
    code on the calling domain. An engine with no event due by an
    epoch's horizon is not run in that epoch, and epochs in which no
    engine has work are skipped.

    Manager strategies ([smart] workloads) do not apply inside a fleet:
    clients replay each workload's demand stream
    ({!Acfc_wir.Wir.packed_references}) against plain two-level caches. *)

type client_stats = {
  local_hits : int;
  local_misses : int;
  remote_requests : int;  (** shared-file misses sent to the server *)
  server_hits : int;  (** of this client's requests *)
  local_disk_reads : int;
  events : int;  (** engine events processed by this client *)
  finish_s : float;  (** when the client's last workload finished *)
}

type report = {
  client_stats : client_stats array;
  epochs : int;  (** barriers executed (empty epochs are skipped) *)
  lookahead_s : float;
  events : int;  (** aggregate over all client engines *)
  makespan_s : float;
  server_requests : int;
  server_hits : int;
  server_busy_s : float;  (** server drive busy time *)
  server_wait_s : float;  (** total FCFS queueing delay at the server drive *)
}

val run :
  ?jobs:int ->
  ?obs:Acfc_obs.Sink.t ->
  ?monitor:Acfc_obs.Monitor.producer * float ->
  Acfc_scenario.Scenario.t ->
  report
(** Simulate the fleet to completion. [jobs] (default
    {!Acfc_par.Pool.default_jobs}, clamped to the client count) only
    changes wall-clock time, never the report. [obs], when given,
    receives per-client labelled gauges ([fleet.client.*{client=N}]),
    their {!Acfc_obs.Metrics.gauge_sum} roll-ups, and [fleet.server.*]
    gauges. [monitor], as [(producer, every)], streams a metrics
    snapshot at the first epoch barrier past each [every] simulated
    seconds — sampled while the worker domains are parked, so a
    monitored run's report is byte-identical to an unmonitored one —
    then a final snapshot, closing the stream; it requires [obs]
    (raises [Invalid_argument] otherwise). Raises [Invalid_argument]
    if the scenario has no [fleet] section or [shared_files] exceeds
    the workload file slots; [Failure] if the fleet stalls (a lost
    response — a bug, not a scenario error). *)

val pp : Format.formatter -> report -> unit
(** Deterministic rendering: contains nothing worker- or wall-clock-
    dependent, so it is the byte-identity witness diffed by the golden
    test and CI at [--jobs 1] vs [4]. *)

val to_string : report -> string

(** {2 Test hooks} *)

module For_tests : sig
  val merge : Batch.t array -> (float * int * int * int * int) list
  (** Drain the batches through the barrier's gather + deterministic
      sort and return the requests in served order
      [(ts, client, seq, wld, blk)]; clears the batches. The order is a
      pure function of the (ts, client, seq) triples — independent of
      how requests are distributed over the buffers — which the
      property suite checks against a [List.sort] specification. *)
end
