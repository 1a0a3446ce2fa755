(* Seeded workloads for the concurrent query server.

   A workload is a list of SQL queries with optional priorities and
   deadlines. Two sources: a deterministic generator drawing from
   per-site template pools (the bench and the QCheck property need the
   same workload from the same seed, so the PRNG is a fixed xorshift —
   no [Random] state, no global), and a text file for the CLI (one
   query per line, [#] comments, optional [PRIO|SQL] prefix). *)

type entry = { sql : string; priority : int; deadline_ms : float option }

let entry ?(priority = 0) ?deadline_ms sql = { sql; priority; deadline_ms }

(* ------------------------------------------------------------------ *)
(* Template pools                                                      *)
(* ------------------------------------------------------------------ *)

(* Overlap is the point: pools repeat the same relations (Professor,
   Product, ...) under different selections, so concurrent queries
   navigate largely the same pages and the shared cache has something
   to coalesce. *)

let university_templates =
  [
    "SELECT p.PName, p.Rank FROM Professor p";
    "SELECT p.PName, p.Email FROM Professor p";
    "SELECT p.PName FROM Professor p WHERE p.Rank = 'Full'";
    "SELECT p.PName FROM Professor p WHERE p.Rank = 'Assistant'";
    "SELECT d.DName, d.Address FROM Dept d";
    "SELECT c.CName, c.Session FROM Course c";
    "SELECT c.CName, c.Description FROM Course c WHERE c.Session = 'Fall'";
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'";
    "SELECT p.PName, p.Rank FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Mathematics'";
    "SELECT c.CName, ci.PName FROM Course c, CourseInstructor ci \
     WHERE c.CName = ci.CName";
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor ci, Course c \
     WHERE p.PName = ci.PName AND ci.CName = c.CName \
     AND c.Session = 'Fall' AND p.Rank = 'Full'";
    "SELECT p.PName FROM Course c, CourseInstructor ci, Professor p, ProfDept pd \
     WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = pd.PName \
     AND pd.DName = 'Computer Science'";
  ]

let bibliography_templates =
  [
    "SELECT c.CName FROM ConfPage c";
    "SELECT e.CName, e.Year FROM EditionPage e";
    "SELECT e.CName, e.Editors FROM EditionPage e";
    "SELECT a.AName FROM AuthorPage a";
  ]

let catalog_templates =
  [
    "SELECT p.PName, p.Price FROM Product p";
    "SELECT p.PName, p.Price FROM Product p WHERE p.Category = 'Audio'";
    "SELECT p.PName, p.Brand FROM Product p WHERE p.Category = 'Audio' AND p.Price >= 400";
    "SELECT p.PName, p.Price FROM Product p WHERE p.Brand = 'Acme' AND p.Price < 50";
    "SELECT p.PName FROM Product p WHERE p.Price > 495";
    "SELECT c.CatName FROM Category c";
    "SELECT b.BrandName FROM Brand b";
  ]

(* The form-only site: every query needs at least one equality
   constant to seed the binding-pattern rewriting search, and the
   constants stick to department names the generator always emits. *)
let formsite_templates =
  [
    "SELECT C.CName, C.Title FROM Course C WHERE C.Dept = 'cs'";
    "SELECT C.CName, C.Instructor FROM Course C WHERE C.Dept = 'math'";
    "SELECT C.Title FROM Course C WHERE C.Dept = 'bio'";
    "SELECT P.PName, P.Office FROM Course C, Professor P \
     WHERE C.Dept = 'cs' AND C.Instructor = P.PName";
    "SELECT P.PName, P.Phone FROM Course C, Professor P \
     WHERE C.Dept = 'math' AND C.Instructor = P.PName";
  ]

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                   *)
(* ------------------------------------------------------------------ *)

(* xorshift64*: deterministic, stateless across runs, and independent
   of the stdlib Random state other code may use. *)
let next_state s =
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  Int64.logxor s (Int64.shift_left s 17)

let bounded state n =
  let s = next_state !state in
  state := s;
  Int64.to_int (Int64.rem (Int64.shift_right_logical s 3) (Int64.of_int n))

let generate ?(templates = university_templates) ?deadline_ms ~seed ~n () =
  let state = ref (Int64.of_int (seed * 2 + 0x9E3779B9)) in
  let pool = Array.of_list templates in
  List.init n (fun _ ->
      let sql = pool.(bounded state (Array.length pool)) in
      let priority = bounded state 3 in
      { sql; priority; deadline_ms })

(* ------------------------------------------------------------------ *)
(* Workload files                                                      *)
(* ------------------------------------------------------------------ *)

(* One query per line. Blank lines and [#] comments are skipped. A
   line may carry a priority prefix: [2|SELECT ...]. *)
let parse_line line =
  let line = String.trim line in
  if String.length line = 0 || line.[0] = '#' then None
  else
    match String.index_opt line '|' with
    | Some i when i > 0 && i < 4 -> (
      let prio = String.trim (String.sub line 0 i) in
      let sql = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      match int_of_string_opt prio with
      | Some p -> Some (entry ~priority:p sql)
      | None -> Some (entry line))
    | _ -> Some (entry line)

let of_lines lines = List.filter_map parse_line lines

(* [of_lines] over a file, each entry paired with its 1-based line
   number so a caller can point at a bad query. *)
let load path =
  let ic = open_in path in
  let rec read n acc =
    match input_line ic with
    | line ->
      let acc = match parse_line line with Some e -> (n, e) :: acc | None -> acc in
      read (n + 1) acc
    | exception End_of_file -> List.rev acc
  in
  let entries = read 1 [] in
  close_in ic;
  entries
