(** Simulated HTTP client with access accounting: GET = full page
    download, HEAD = the paper's "light connection" exchanging only
    the error flag and the Last-Modified date. [bytes] accrues GET
    payloads; [head_bytes] the fixed per-HEAD header; [failed] the
    exchanges the network runtime ({!Netmodel}/{!Fetcher}) failed on
    the wire. *)

type stats = {
  mutable gets : int;
  mutable heads : int;
  mutable not_found : int;
  mutable bytes : int;  (** GET payload bytes *)
  mutable head_bytes : int;  (** light-connection header bytes *)
  mutable failed : int;
      (** exchanges that died on the wire; {!Fetcher.report} carries
          it as [failed] *)
}

type t

val head_overhead_bytes : int
(** Bytes a light connection transfers (error flag + date). *)

val connect : Site.t -> t
val stats : t -> stats
val site : t -> Site.t
val reset_stats : t -> unit
val snapshot : t -> stats
val diff : before:stats -> after:stats -> stats

val get : t -> string -> (string * int) option
(** Body and Last-Modified, or [None] on 404. *)

val get_partial : t -> string -> keep:float -> (string * int) option
(** A download whose transfer broke off: counts as a GET but only the
    received [keep] fraction of the body accrues to [bytes]. Used by
    {!Fetcher} to simulate truncated responses. *)

val head : t -> string -> int option
(** Last-Modified only, or [None] on 404. *)

val record_failed : t -> unit
(** Count one exchange that failed on the wire (used by {!Fetcher}). *)

val pp_stats : stats Fmt.t
