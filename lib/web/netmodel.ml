(* A seeded, deterministic model of a faulty, slow network layered
   over the perfect Site/Http transport. The paper's experiments ran
   against the 1998 live web, where connections were slow, pages
   vanished, and servers failed transiently; this module recreates
   those conditions reproducibly so plans can be stressed by latency
   and failure, not just counted in page accesses.

   Everything is a pure function of (seed, url, kind, attempt, epoch):
   re-running the same workload yields the same fault pattern and the
   same latencies. Faults come in *episodes*: a faulty URL fails its
   first k attempts (k <= max_consecutive) and then succeeds, which is
   what "transient" means — so a fetcher that retries at least
   max_consecutive times is guaranteed the fault-free answer. Time is
   simulated: a wall clock (milliseconds) advances as exchanges are
   charged against it, so overlapping a batch of fetches shows up as
   real elapsed-time savings. *)

(* The latency and failure-mode constants of every simulated network:
   a GET costs [base_ms] plus [per_kb_ms] per KiB of body, a HEAD
   [head_ms], each within +/- [jitter] of its base; a failed attempt
   is a timeout ([timeout_share] of them, costing [timeout_ms]), a
   truncated body ([truncate_share]) or a plain 5xx. *)
let base_ms = 40.0
let per_kb_ms = 5.0
let jitter = 0.2
let head_ms = 10.0
let timeout_ms = 1000.0
let timeout_share = 0.25
let truncate_share = 0.25

type config = {
  seed : int;
  fault_rate : float; (* probability a URL has a fault episode *)
  max_consecutive : int; (* episode length: first 1..n attempts fail *)
}

let config ?(seed = 42) ?(fault_rate = 0.0) ?(max_consecutive = 2) () =
  { seed; fault_rate; max_consecutive }

type outcome =
  | Ok_response
  | Server_error of int (* transient 5xx: no response body *)
  | Timed_out (* no response at all, costs the full timeout window *)
  | Truncated of float (* response cut off; fraction of the body received *)

type t = {
  cfg : config;
  mutable now_ms : float; (* the simulated wall clock *)
  mutable epoch : int; (* bump to draw a fresh fault pattern *)
}

let create cfg = { cfg; now_ms = 0.0; epoch = 0 }
let now_ms t = t.now_ms
let advance t ms = if ms > 0.0 then t.now_ms <- t.now_ms +. ms
let next_epoch t = t.epoch <- t.epoch + 1

(* ------------------------------------------------------------------ *)
(* Deterministic hashing                                               *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the salted key, then an avalanche mix: deterministic
   across runs and processes (unlike Hashtbl.seeded_hash it does not
   depend on the stdlib's internals). *)
let hash_key t ~salt ~url ~attempt =
  let h = ref 0x811c9dc5 in
  let feed s =
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFFFFFFFFF) s
  in
  feed salt;
  feed url;
  feed (string_of_int attempt);
  feed (string_of_int t.cfg.seed);
  feed (string_of_int t.epoch);
  let x = !h in
  let x = x lxor (x lsr 33) in
  let x = x * 0xff51afd7 land 0x3FFFFFFFFFFFFFF in
  let x = x lxor (x lsr 29) in
  x land max_int

(* Uniform draw in [0, 1) from a key. *)
let u01 t ~salt ~url ~attempt =
  float_of_int (hash_key t ~salt ~url ~attempt mod 1_000_003) /. 1_000_003.0

(* Exported so the fetcher can draw deterministic jitter (backoff
   delays) from the same seeded stream. *)
let uniform = u01

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

(* Jitter multiplier in [1 - jitter, 1 + jitter], deterministic per
   exchange. *)
let jittered t ~url ~attempt base =
  let u = u01 t ~salt:"lat" ~url ~attempt in
  base *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0)))

let latency_ms t ~kind ~url ~attempt ~bytes =
  match kind with
  | `Head -> jittered t ~url ~attempt head_ms
  | `Get ->
    let transfer = per_kb_ms *. (float_of_int bytes /. 1024.0) in
    jittered t ~url ~attempt (base_ms +. transfer)

(* Wall-clock cost of a failed attempt. *)
let penalty_ms t ~url ~attempt = function
  | Ok_response -> 0.0
  | Timed_out -> timeout_ms
  | Server_error _ -> jittered t ~url ~attempt base_ms
  | Truncated frac ->
    (* the partial transfer still took (roughly) its share of time *)
    latency_ms t ~kind:`Get ~url ~attempt ~bytes:0 *. Float.max frac 0.1

(* ------------------------------------------------------------------ *)
(* Fault episodes                                                      *)
(* ------------------------------------------------------------------ *)

(* Length of the fault episode for a URL under the current epoch:
   0 = healthy, k > 0 = the first k attempts fail. *)
let episode_len t url =
  if t.cfg.fault_rate <= 0.0 then 0
  else if u01 t ~salt:"fault" ~url ~attempt:0 < t.cfg.fault_rate then
    1 + (hash_key t ~salt:"len" ~url ~attempt:0 mod max 1 t.cfg.max_consecutive)
  else 0

(* The failure mode of one failed attempt: timeout, truncation or a
   plain 5xx, split by the fixed shares. *)
let failure_mode t ~url ~attempt =
  let u = u01 t ~salt:"mode" ~url ~attempt in
  if u < timeout_share then Timed_out
  else if u < timeout_share +. truncate_share then
    Truncated (0.25 +. (0.5 *. u01 t ~salt:"frac" ~url ~attempt))
  else Server_error (if u01 t ~salt:"code" ~url ~attempt < 0.5 then 500 else 503)

(* The verdict for attempt [n] (1-based) of an exchange on [url]. HEAD
   and GET share the episode: the site is unreachable either way. *)
let fault t ~url ~attempt =
  if attempt <= episode_len t url then failure_mode t ~url ~attempt else Ok_response
