(** The bibliography site of the paper's introduction — a miniature of
    the Trier DBLP bibliography, built to reproduce the intro's four
    alternative access paths for “authors in the last three VLDB
    conferences”. *)

type config = {
  seed : int;
  n_conferences : int;
  n_db_conferences : int;
  n_years : int;
  n_authors : int;
  papers_per_edition : int;
  authors_per_paper : int;
}

val default_config : config

type paper = { title : string; authors : string list }
type edition = { conf : string; year : int; editors : string; papers : paper list }
type t

val schema : Adm.Schema.t
val build : ?config:config -> unit -> t
val site : t -> Websim.Site.t
val authors : t -> string list
val editions : t -> edition list

val last_vldb_years : t -> int -> int list
val vldb_regulars : t -> int -> string list
(** Ground truth: authors with a paper in each of the last [n] VLDB
    editions. *)

(** The four access paths of the introduction, as computable NALG
    expressions producing the (author, year) pairs of VLDB editions. *)

val path1_all_conferences : unit -> Webviews.Nalg.expr
val path2_db_conferences : unit -> Webviews.Nalg.expr
val path3_direct_link : unit -> Webviews.Nalg.expr
val path4_via_authors : unit -> Webviews.Nalg.expr
