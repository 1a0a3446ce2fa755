(** A form-only web site: every data page sits behind a parameterized
    entry point ("?dept=cs") and no crawlable index exists, so queries
    have no navigation-only plan — they are answered by the
    binding-pattern rewriting search over the site's registered path
    views ({!Bindings}). *)

type config = { seed : int; n_depts : int; n_profs : int; n_courses : int }

val default_config : config

type course = {
  c_name : string;
  c_title : string;
  c_dept : string;
  c_instructor : string;
}

type prof = { p_name : string; office : string; phone : string }

type t

val schema : Adm.Schema.t
(** One entry point ([FormHome], link-free) and three parameterized
    page-schemes: [DeptPage[dept]], [CoursePage[course]],
    [ProfPage[prof]] — each echoing its parameter. *)

val view : Webviews.View.registry
(** External relations [Course] and [Professor], with no default
    navigations: nothing links to the data. *)

val path_views : Bindings.path_view list
(** The three forms as path views: department lookup (unnesting the
    course list), course lookup, professor lookup. *)

val binding_config : Bindings.config

val build : ?config:config -> unit -> t

val site : t -> Websim.Site.t
val depts : t -> string list
val courses : t -> course list
val profs : t -> prof list

val stats : t -> Webviews.Stats.t
(** Declared statistics — the site cannot be crawled. *)


val expected_staff : t -> dept:string -> (string * string) list
(** Ground truth of {!staff_query}: distinct (instructor, office)
    pairs over the department's courses, sorted — the projection
    semantics of the algebra. *)

val oracle_gets : t -> int
(** GET count of the full-materialization oracle (every page of the
    site). *)

val staff_query : string -> string
(** The headline query: professors teaching a department's courses,
    with offices — answerable only through a composition of forms. *)
