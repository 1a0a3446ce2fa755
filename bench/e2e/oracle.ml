(* Ground truth for every query the benchmark sends.

   Each template family produces its SQL text and its expected answer
   from the site generator's records alone (University.profs / courses
   / depts, Formsite.courses / expected_staff): no SQL parser, no
   algebra, no wrapper, no relation kernel. Answers are bags of rows of
   strings; the algebra's projection removes duplicates, so a correct
   answer equals the oracle's sorted, duplicate-free rows. *)

module U = Sitegen.University
module F = Sitegen.Formsite

type case = {
  family : string;
  sql : string;
  expected : string list list;  (** sorted, distinct *)
}

let case family sql rows = { family; sql; expected = List.sort_uniq compare rows }

(* ------------------------------------------------------------------ *)
(* University                                                          *)
(* ------------------------------------------------------------------ *)

let ranks = [ "Full"; "Associate"; "Assistant" ]
let course_types = [ "Graduate"; "Undergraduate" ]

type university = {
  profs : U.prof list;
  courses : U.course list;
  depts : U.dept list;
  sessions : string list;
  prof : (string, U.prof) Hashtbl.t;
}

let university u =
  let prof = Hashtbl.create 1024 in
  List.iter (fun (p : U.prof) -> Hashtbl.replace prof p.U.p_name p) (U.profs u);
  { profs = U.profs u; courses = U.courses u; depts = U.depts u; sessions = U.sessions u; prof }

let instructor t (c : U.course) = Hashtbl.find_opt t.prof c.U.instructor

let prof_field (p : U.prof) = function
  | "Rank" -> p.U.rank
  | "Email" -> p.U.email
  | f -> invalid_arg ("Oracle.prof_field " ^ f)

(* (course, instructor) pairs of a department's professors: the join
   behind the Fig. 2, dept-teachers and Ex. 7.2-style families *)
let taught_in_dept t dept =
  List.filter_map
    (fun (c : U.course) ->
      match instructor t c with
      | Some p when String.equal p.U.p_dept dept -> Some (c, p)
      | _ -> None)
    t.courses

let professors t col =
  case "professors"
    (Printf.sprintf "SELECT p.PName, p.%s FROM Professor p" col)
    (List.map (fun p -> [ p.U.p_name; prof_field p col ]) t.profs)

let profs_of_rank t rank =
  case "profs-of-rank"
    (Printf.sprintf "SELECT p.PName FROM Professor p WHERE p.Rank = '%s'" rank)
    (List.filter_map
       (fun p -> if String.equal p.U.rank rank then Some [ p.U.p_name ] else None)
       t.profs)

let departments t =
  case "departments" "SELECT d.DName, d.Address FROM Dept d"
    (List.map (fun d -> [ d.U.d_name; d.U.address ]) t.depts)

let course_sessions t =
  case "course-sessions" "SELECT c.CName, c.Session FROM Course c"
    (List.map (fun c -> [ c.U.c_name; c.U.c_session ]) t.courses)

let session_courses t session =
  case "session-courses"
    (Printf.sprintf
       "SELECT c.CName, c.Description FROM Course c WHERE c.Session = '%s'" session)
    (List.filter_map
       (fun c ->
         if String.equal c.U.c_session session then Some [ c.U.c_name; c.U.description ]
         else None)
       t.courses)

(* the 2-way dept join *)
let dept_members t col dept =
  case "dept-members"
    (Printf.sprintf
       "SELECT p.PName, p.%s FROM Professor p, ProfDept d WHERE p.PName = d.PName \
        AND d.DName = '%s'"
       col dept)
    (List.filter_map
       (fun p ->
         if String.equal p.U.p_dept dept then Some [ p.U.p_name; prof_field p col ]
         else None)
       t.profs)

let course_instructors t =
  case "course-instructors"
    "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci WHERE c.CName = ci.CName"
    (List.map (fun c -> [ c.U.c_name; c.U.instructor ]) t.courses)

(* Example 7.1 *)
let ex71 t session rank =
  case "ex7.1"
    (Printf.sprintf
       "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
        WHERE p.PName = ci.PName AND ci.CName = c.CName AND c.Session = '%s' AND \
        p.Rank = '%s'"
       session rank)
    (List.filter_map
       (fun c ->
         match instructor t c with
         | Some p when String.equal c.U.c_session session && String.equal p.U.rank rank ->
           Some [ c.U.c_name; c.U.description ]
         | _ -> None)
       t.courses)

let dept_teachers t dept =
  case "dept-teachers"
    (Printf.sprintf
       "SELECT p.PName FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
        WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName AND \
        pd.DName = '%s'"
       dept)
    (List.map (fun (_, p) -> [ p.U.p_name ]) (taught_in_dept t dept))

(* Figure 2 *)
let fig2 t dept =
  case "fig2"
    (Printf.sprintf
       "SELECT c.CName, c.Description FROM Course c, CourseInstructor ci, ProfDept pd \
        WHERE c.CName = ci.CName AND ci.PName = pd.PName AND pd.DName = '%s'"
       dept)
    (List.map (fun ((c : U.course), _) -> [ c.U.c_name; c.U.description ]) (taught_in_dept t dept))

(* Example 7.2 *)
let ex72 t dept ctype =
  case "ex7.2"
    (Printf.sprintf
       "SELECT p.PName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
        ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = \
        pd.PName AND pd.DName = '%s' AND c.Type = '%s'"
       dept ctype)
    (List.filter_map
       (fun ((c : U.course), (p : U.prof)) ->
         if String.equal c.U.c_type ctype then Some [ p.U.p_name; p.U.email ] else None)
       (taught_in_dept t dept))

(* Example 7.2 with a session filter and a course column *)
let ex72_session t dept session =
  case "ex7.2-session"
    (Printf.sprintf
       "SELECT c.CName, p.Email FROM Course c, CourseInstructor ci, Professor p, \
        ProfDept pd WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = \
        pd.PName AND pd.DName = '%s' AND c.Session = '%s'"
       dept session)
    (List.filter_map
       (fun ((c : U.course), (p : U.prof)) ->
         if String.equal c.U.c_session session then Some [ c.U.c_name; p.U.email ]
         else None)
       (taught_in_dept t dept))

(* The server's twelve standard templates, in the order of
   [Server.Workload.university_templates]. *)
let standard t =
  [
    professors t "Rank"; professors t "Email"; profs_of_rank t "Full";
    profs_of_rank t "Assistant"; departments t; course_sessions t;
    session_courses t "Fall"; dept_members t "Email" "Computer Science";
    dept_members t "Rank" "Mathematics"; course_instructors t; ex71 t "Fall" "Full";
    dept_teachers t "Computer Science";
  ]

(* The five join families of the planning workload, cycled in this
   order: three 2-way and three Fig. 2 queries, two Ex. 7.1 and one of
   each 4-way family per ten. Planning a 4-way join takes about five
   times as long as anything else, so with this mix the median query is
   a Fig. 2 join and the 95th percentile a 4-way one, each well inside
   its family's band of latencies. *)
let join_cycle =
  [ "dept-members"; "fig2"; "ex7.1"; "dept-members"; "fig2"; "ex7.2"; "dept-members"; "fig2";
    "ex7.1"; "ex7.2-session" ]

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Query [i] of the cycle, its constants drawn from [rng] over the
   generator's depts, sessions, ranks and types. *)
let join_query t rng i =
  let dept () = (pick rng t.depts).U.d_name in
  let session () = pick rng t.sessions in
  match List.nth join_cycle (i mod List.length join_cycle) with
  | "dept-members" -> dept_members t "Email" (dept ())
  | "fig2" -> fig2 t (dept ())
  | "ex7.1" ->
    let s = session () in
    ex71 t s (pick rng ranks)
  | "ex7.2" ->
    let d = dept () in
    ex72 t d (pick rng course_types)
  | _ ->
    let d = dept () in
    ex72_session t d (session ())

(* Every family with one instance each, for the oracle tests. *)
let university_families t =
  let d = (List.hd t.depts).U.d_name and s = List.hd t.sessions in
  standard t
  @ [ fig2 t d; ex72 t d "Graduate"; ex72_session t d s; dept_members t "Email" d; session_courses t s ]

(* ------------------------------------------------------------------ *)
(* Form-only site                                                      *)
(* ------------------------------------------------------------------ *)

let dept_courses fs dept =
  List.filter (fun c -> String.equal c.F.c_dept dept) (F.courses fs)

let staff_phones fs dept =
  List.filter_map
    (fun c ->
      Option.map
        (fun p -> [ c.F.c_instructor; p.F.phone ])
        (List.find_opt (fun p -> String.equal p.F.p_name c.F.c_instructor) (F.profs fs)))
    (dept_courses fs dept)

(* The five shapes of [Server.Workload.formsite_templates], any dept. *)
let form_families = [ "course-titles"; "course-instructors"; "titles"; "staff-offices"; "staff-phones" ]

let form_query fs shape dept =
  let q = Printf.sprintf in
  match shape mod 5 with
  | 0 ->
    case "course-titles"
      (q "SELECT C.CName, C.Title FROM Course C WHERE C.Dept = '%s'" dept)
      (List.map (fun c -> [ c.F.c_name; c.F.c_title ]) (dept_courses fs dept))
  | 1 ->
    case "course-instructors"
      (q "SELECT C.CName, C.Instructor FROM Course C WHERE C.Dept = '%s'" dept)
      (List.map (fun c -> [ c.F.c_name; c.F.c_instructor ]) (dept_courses fs dept))
  | 2 ->
    case "titles"
      (q "SELECT C.Title FROM Course C WHERE C.Dept = '%s'" dept)
      (List.map (fun c -> [ c.F.c_title ]) (dept_courses fs dept))
  | 3 ->
    case "staff-offices"
      (q
         "SELECT P.PName, P.Office FROM Course C, Professor P WHERE C.Dept = '%s' \
          AND C.Instructor = P.PName"
         dept)
      (List.map (fun (n, o) -> [ n; o ]) (F.expected_staff fs ~dept))
  | _ ->
    case "staff-phones"
      (q
         "SELECT P.PName, P.Phone FROM Course C, Professor P WHERE C.Dept = '%s' \
          AND C.Instructor = P.PName"
         dept)
      (staff_phones fs dept)

(* The server's formsite templates, with their own constants. *)
let form_standard fs =
  List.mapi (fun i d -> form_query fs i d) [ "cs"; "math"; "bio"; "cs"; "math" ]

(* ------------------------------------------------------------------ *)
(* Checking system answers                                             *)
(* ------------------------------------------------------------------ *)

let cell v = Adm.Value.to_display v

(* The system's answer as sorted rows of strings. *)
let rows rel =
  List.map (fun row -> Array.to_list (Array.map cell row)) (Adm.Relation.rows_arrays rel)
  |> List.sort compare

let matches c rows = rows = c.expected

(* Under churn a page may be gone when a query reads it, so a correct
   answer is a duplicate-free subset of the frozen site's answer. *)
let within c rows =
  let rec distinct = function a :: (b :: _ as tl) -> a <> b && distinct tl | _ -> true in
  let expected = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace expected r ()) c.expected;
  distinct rows && List.for_all (Hashtbl.mem expected) rows

(* Order-insensitive multiset digest of an answer: row count plus two
   independent sums of row hashes. Equal bags give equal digests. Cells
   hash as text atoms, whose hash is computed once at interning, so
   digesting a large answer while the server runs stays cheap. *)
type digest = { n : int; sum : int; mix : int }

let empty_digest = { n = 0; sum = 0; mix = 0 }
let combine h v = (h * 1_000_003) lxor Adm.Value.hash v
let add d h = { n = d.n + 1; sum = d.sum + h; mix = d.mix + ((h lxor (h lsr 17)) * 0x9E3779B1) }

let digest_rows rows =
  List.fold_left
    (fun d cells -> add d (List.fold_left (fun h c -> combine h (Adm.Value.text c)) 0x2545F491 cells))
    empty_digest rows

let digest_relation rel =
  Seq.fold_left
    (fun d row -> add d (Array.fold_left combine 0x2545F491 row))
    empty_digest (Adm.Relation.to_seq rel)
