(** The university web site of the paper's Figure 1, as a parametric
    deterministic generator: ground-truth records, real HTML pages on
    a {!Websim.Site}, the ADM scheme with the paper's link and
    inclusion constraints, the Section 5 external view, and mutation
    operations that keep the pages consistent (for materialized-view
    experiments). *)

type config = {
  seed : int;
  n_depts : int;
  n_profs : int;
  n_courses : int;
  n_sessions : int;  (** at most 4 *)
  full_fraction : float;  (** fraction of full professors *)
  grad_fraction : float;  (** fraction of graduate courses *)
}

val default_config : config
(** The paper's Example 7.2 numbers: 3 departments, 20 professors,
    50 courses, 3 sessions; seed 42. *)

type dept = { d_name : string; address : string }

type prof = {
  p_name : string;
  rank : string;  (** ["Full" | "Associate" | "Assistant"] *)
  email : string;
  p_dept : string;
}

type course = {
  c_name : string;
  c_session : string;
  description : string;
  c_type : string;  (** ["Graduate" | "Undergraduate"] *)
  instructor : string;
}

type t

val schema : Adm.Schema.t
(** Figure 1: 8 page-schemes, 4 entry points, 11 link constraints and
    4 inclusion constraints. *)

val view : Webviews.View.registry
(** The Section 5 external view: Dept, Professor, Course,
    CourseInstructor (2 default navigations), ProfDept (2). *)

val build : ?config:config -> unit -> t

val site : t -> Websim.Site.t
val depts : t -> dept list
val profs : t -> prof list
val courses : t -> course list
val sessions : t -> string list

(** URLs (useful in tests and experiments). *)

val home_url : string
val prof_list_url : string
val prof_url : string -> string
val course_url : string -> string

(** The paper's literal plans (Section 7) over {!schema}, as NALG
    expressions.

    Figure 3, Example 7.1 (name and description of the Fall courses
    taught by full professors): *)

val fig3_pointer_join : unit -> Webviews.Nalg.expr
(** Plan (1d): intersect the Fall session's course pointers with the
    full professors' course pointers, then follow the common ones. *)

val fig3_pointer_chase : unit -> Webviews.Nalg.expr
(** Plan (2d): follow every course link of every full professor, then
    keep the Fall courses. *)

(** Figure 4, Example 7.2 (name and e-mail of the Computer Science
    professors teaching a graduate course): *)

val fig4_pointer_join : unit -> Webviews.Nalg.expr
(** Plan (1): intersect the CS department's professor pointers with the
    instructor pointers of every graduate course (which downloads every
    session and course page), then follow the common ones. *)

val fig4_pointer_chase : unit -> Webviews.Nalg.expr
(** Plan (2): follow the CS department's professors, then their
    courses, and keep the graduate ones. *)

(** Mutations: the autonomous site manager at work. Each keeps every
    affected page consistent and bumps the site clock. *)

val hire_professor : t -> dept_name:string -> prof
val drop_course : t -> c_name:string -> bool
val revise_course : t -> c_name:string -> bool
val promote_professor : t -> p_name:string -> bool
