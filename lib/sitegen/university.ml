(* The university web site of Figure 1, as a parametric, deterministic
   generator. It produces:

   - ground-truth records (departments, professors, sessions, courses);
   - the HTML pages of the eight page-schemes, rendered through the
     wrapper conventions and served by a {!Websim.Site};
   - the ADM scheme with the paper's link and inclusion constraints;
   - the external view of Section 5 with its default navigations;
   - mutation operations (hire professors, drop or revise courses)
     that keep the site's pages consistent, for the materialized-view
     experiments. *)

type config = {
  seed : int;
  n_depts : int;
  n_profs : int;
  n_courses : int;
  n_sessions : int; (* ≤ 4 *)
  full_fraction : float; (* fraction of full professors *)
  grad_fraction : float; (* fraction of graduate courses *)
}

let default_config =
  {
    seed = 42;
    n_depts = 3;
    n_profs = 20;
    n_courses = 50;
    n_sessions = 3;
    full_fraction = 1.0 /. 3.0;
    grad_fraction = 0.5;
  }

(* Ground truth. *)

type dept = { d_name : string; address : string }

type prof = {
  p_name : string;
  rank : string; (* "Full" | "Associate" | "Assistant" *)
  email : string;
  p_dept : string; (* DName *)
}

type course = {
  c_name : string;
  c_session : string;
  description : string;
  c_type : string; (* "Graduate" | "Undergraduate" *)
  instructor : string; (* PName *)
}

type t = {
  config : config;
  site : Websim.Site.t;
  mutable depts : dept list;
  mutable profs : prof list;
  mutable courses : course list;
  sessions : string list;
  mutable serial : int; (* for fresh names in mutations *)
}

(* ------------------------------------------------------------------ *)
(* URLs                                                                *)
(* ------------------------------------------------------------------ *)

let slug s =
  String.map (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c) s

let home_url = "/index.html"
let dept_list_url = "/depts/index.html"
let prof_list_url = "/profs/index.html"
let session_list_url = "/sessions/index.html"
let dept_url d = "/depts/" ^ slug d ^ ".html"
let prof_url p = "/profs/" ^ slug p ^ ".html"
let session_url s = "/sessions/" ^ slug s ^ ".html"
let course_url c = "/courses/" ^ slug c ^ ".html"

(* ------------------------------------------------------------------ *)
(* The ADM scheme (Figure 1)                                           *)
(* ------------------------------------------------------------------ *)

let schema : Adm.Schema.t =
  let open Adm in
  let text = Webtype.Text in
  let link p = Webtype.Link p in
  let home =
    Page_scheme.make ~entry_url:home_url "HomePage"
      [
        Page_scheme.attr "ToDeptList" (link "DeptListPage");
        Page_scheme.attr "ToProfList" (link "ProfListPage");
        Page_scheme.attr "ToSesList" (link "SessionListPage");
      ]
  in
  let dept_list =
    Page_scheme.make ~entry_url:dept_list_url "DeptListPage"
      [
        Page_scheme.attr "DeptList" ~nonempty:true
          (Webtype.List [ ("DName", text); ("ToDept", link "DeptPage") ]);
      ]
  in
  let dept =
    Page_scheme.make "DeptPage"
      [
        Page_scheme.attr "DName" text;
        Page_scheme.attr "Address" text;
        Page_scheme.attr "ProfList" ~nonempty:true
          (Webtype.List [ ("PName", text); ("ToProf", link "ProfPage") ]);
      ]
  in
  let prof_list =
    Page_scheme.make ~entry_url:prof_list_url "ProfListPage"
      [
        Page_scheme.attr "ProfList" ~nonempty:true
          (Webtype.List [ ("PName", text); ("ToProf", link "ProfPage") ]);
      ]
  in
  let prof =
    Page_scheme.make "ProfPage"
      [
        Page_scheme.attr "PName" text;
        Page_scheme.attr "Rank" text;
        Page_scheme.attr "Email" text;
        Page_scheme.attr "DName" text;
        Page_scheme.attr "ToDept" (link "DeptPage");
        Page_scheme.attr "CourseList"
          (Webtype.List [ ("CName", text); ("ToCourse", link "CoursePage") ]);
      ]
  in
  let session_list =
    Page_scheme.make ~entry_url:session_list_url "SessionListPage"
      [
        Page_scheme.attr "SesList" ~nonempty:true
          (Webtype.List [ ("Session", text); ("ToSes", link "SessionPage") ]);
      ]
  in
  let session =
    Page_scheme.make "SessionPage"
      [
        Page_scheme.attr "Session" text;
        Page_scheme.attr "CourseList"
          (Webtype.List [ ("CName", text); ("ToCourse", link "CoursePage") ]);
      ]
  in
  let course =
    Page_scheme.make "CoursePage"
      [
        Page_scheme.attr "CName" text;
        Page_scheme.attr "Session" text;
        Page_scheme.attr "Description" text;
        Page_scheme.attr "Type" text;
        Page_scheme.attr "PName" text;
        Page_scheme.attr "ToProf" (link "ProfPage");
      ]
  in
  let p = Constraints.path in
  let lc = Constraints.link_constraint in
  let link_constraints =
    [
      lc
        ~link:(p "DeptListPage" [ "DeptList"; "ToDept" ])
        ~source_attr:(p "DeptListPage" [ "DeptList"; "DName" ])
        ~target_scheme:"DeptPage" ~target_attr:"DName";
      lc
        ~link:(p "DeptPage" [ "ProfList"; "ToProf" ])
        ~source_attr:(p "DeptPage" [ "ProfList"; "PName" ])
        ~target_scheme:"ProfPage" ~target_attr:"PName";
      (* members of a department link back to it: ProfPage.DName =
         DeptPage.DName (the paper's first example constraint) *)
      lc
        ~link:(p "DeptPage" [ "ProfList"; "ToProf" ])
        ~source_attr:(p "DeptPage" [ "DName" ])
        ~target_scheme:"ProfPage" ~target_attr:"DName";
      lc
        ~link:(p "ProfListPage" [ "ProfList"; "ToProf" ])
        ~source_attr:(p "ProfListPage" [ "ProfList"; "PName" ])
        ~target_scheme:"ProfPage" ~target_attr:"PName";
      lc
        ~link:(p "ProfPage" [ "ToDept" ])
        ~source_attr:(p "ProfPage" [ "DName" ])
        ~target_scheme:"DeptPage" ~target_attr:"DName";
      lc
        ~link:(p "ProfPage" [ "CourseList"; "ToCourse" ])
        ~source_attr:(p "ProfPage" [ "CourseList"; "CName" ])
        ~target_scheme:"CoursePage" ~target_attr:"CName";
      (* an instructor's courses carry the instructor's name *)
      lc
        ~link:(p "ProfPage" [ "CourseList"; "ToCourse" ])
        ~source_attr:(p "ProfPage" [ "PName" ])
        ~target_scheme:"CoursePage" ~target_attr:"PName";
      lc
        ~link:(p "SessionListPage" [ "SesList"; "ToSes" ])
        ~source_attr:(p "SessionListPage" [ "SesList"; "Session" ])
        ~target_scheme:"SessionPage" ~target_attr:"Session";
      lc
        ~link:(p "SessionPage" [ "CourseList"; "ToCourse" ])
        ~source_attr:(p "SessionPage" [ "CourseList"; "CName" ])
        ~target_scheme:"CoursePage" ~target_attr:"CName";
      (* SessionPage.Session = CoursePage.Session (paper, Section 3.2) *)
      lc
        ~link:(p "SessionPage" [ "CourseList"; "ToCourse" ])
        ~source_attr:(p "SessionPage" [ "Session" ])
        ~target_scheme:"CoursePage" ~target_attr:"Session";
      lc
        ~link:(p "CoursePage" [ "ToProf" ])
        ~source_attr:(p "CoursePage" [ "PName" ])
        ~target_scheme:"ProfPage" ~target_attr:"PName";
    ]
  in
  let inclusions =
    [
      (* paper, Section 3.2 *)
      Constraints.inclusion
        ~sub:(p "CoursePage" [ "ToProf" ])
        ~sup:(p "ProfListPage" [ "ProfList"; "ToProf" ]);
      Constraints.inclusion
        ~sub:(p "DeptPage" [ "ProfList"; "ToProf" ])
        ~sup:(p "ProfListPage" [ "ProfList"; "ToProf" ]);
      (* courses reachable through instructors are a subset of the
         courses reachable through sessions (Section 5) *)
      Constraints.inclusion
        ~sub:(p "ProfPage" [ "CourseList"; "ToCourse" ])
        ~sup:(p "SessionPage" [ "CourseList"; "ToCourse" ]);
      Constraints.inclusion
        ~sub:(p "ProfPage" [ "ToDept" ])
        ~sup:(p "DeptListPage" [ "DeptList"; "ToDept" ]);
    ]
  in
  Adm.Schema.make ~name:"University"
    ~schemes:[ home; dept_list; dept; prof_list; prof; session_list; session; course ]
    ~link_constraints ~inclusions

(* ------------------------------------------------------------------ *)
(* Ground-truth generation                                             *)
(* ------------------------------------------------------------------ *)

let dept_names =
  [|
    "Computer Science"; "Mathematics"; "Physics"; "Chemistry"; "Biology";
    "History"; "Philosophy"; "Economics"; "Linguistics"; "Statistics";
  |]

let first_names =
  [|
    "Ada"; "Alan"; "Grace"; "Edsger"; "Barbara"; "Donald"; "John"; "Leslie";
    "Robin"; "Tony"; "Niklaus"; "Dana"; "Frances"; "Ken"; "Dennis"; "Bjarne";
  |]

let last_names =
  [|
    "Lovelace"; "Turing"; "Hopper"; "Dijkstra"; "Liskov"; "Knuth"; "McCarthy";
    "Lamport"; "Milner"; "Hoare"; "Wirth"; "Scott"; "Allen"; "Thompson";
    "Ritchie"; "Stroustrup";
  |]

let all_sessions = [ "Fall"; "Winter"; "Spring"; "Summer" ]

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* Scales to 10^5–10^6 pages: every draw indexes an array (never
   [List.nth]), and the RNG call sequence is exactly the sequence of
   the original list-based generator, so seeded ground truths are
   unchanged at every size. *)
(* [Array.init] with a guaranteed 0..n-1 application order (the stdlib
   leaves it unspecified; the RNG draws below depend on it). *)
let tabulate n f =
  if n <= 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let generate_ground_truth config =
  let rng = Random.State.make [| config.seed |] in
  let depts =
    tabulate config.n_depts (fun i ->
        let d_name =
          if i < Array.length dept_names then dept_names.(i)
          else Fmt.str "Department %02d" (i + 1)
        in
        { d_name; address = Fmt.str "%d College Road" (100 + (7 * i)) })
  in
  let sessions =
    List.filteri (fun i _ -> i < max 1 config.n_sessions) all_sessions
  in
  let session_arr = Array.of_list sessions in
  let n_depts = Array.length depts in
  let n_sessions = Array.length session_arr in
  let profs =
    tabulate config.n_profs (fun i ->
        let p_name =
          Fmt.str "%s %s %02d" (pick rng first_names) (pick rng last_names) (i + 1)
        in
        let rank =
          if Random.State.float rng 1.0 < config.full_fraction then "Full"
          else if Random.State.bool rng then "Associate"
          else "Assistant"
        in
        let dept = depts.(Random.State.int rng n_depts) in
        {
          p_name;
          rank;
          email = slug p_name ^ "@uni.edu";
          p_dept = dept.d_name;
        })
  in
  let n_profs = Array.length profs in
  let courses =
    List.init config.n_courses (fun i ->
        let c_name = Fmt.str "Course %03d" (i + 1) in
        let session = session_arr.(Random.State.int rng n_sessions) in
        let prof = profs.(Random.State.int rng n_profs) in
        let c_type =
          if Random.State.float rng 1.0 < config.grad_fraction then "Graduate"
          else "Undergraduate"
        in
        {
          c_name;
          c_session = session;
          description = Fmt.str "Lectures and exercises for %s (%s)." c_name session;
          c_type;
          instructor = prof.p_name;
        })
  in
  (Array.to_list depts, Array.to_list profs, courses, sessions)

(* ------------------------------------------------------------------ *)
(* Page rendering                                                      *)
(* ------------------------------------------------------------------ *)

let v_text s = Adm.Value.text s
let v_link u = Adm.Value.link u

let home_tuple () : Adm.Value.tuple =
  [
    ("ToDeptList", v_link dept_list_url);
    ("ToProfList", v_link prof_list_url);
    ("ToSesList", v_link session_list_url);
  ]

let dept_list_tuple t : Adm.Value.tuple =
  [
    ( "DeptList",
      Adm.Value.Rows
        (List.map
           (fun d -> [ ("DName", v_text d.d_name); ("ToDept", v_link (dept_url d.d_name)) ])
           t.depts) );
  ]

let dept_tuple_members (d : dept) members : Adm.Value.tuple =
  [
    ("DName", v_text d.d_name);
    ("Address", v_text d.address);
    ( "ProfList",
      Adm.Value.Rows
        (List.map
           (fun p -> [ ("PName", v_text p.p_name); ("ToProf", v_link (prof_url p.p_name)) ])
           members) );
  ]

let prof_list_tuple t : Adm.Value.tuple =
  [
    ( "ProfList",
      Adm.Value.Rows
        (List.map
           (fun p -> [ ("PName", v_text p.p_name); ("ToProf", v_link (prof_url p.p_name)) ])
           t.profs) );
  ]

let prof_tuple_taught (p : prof) taught : Adm.Value.tuple =
  [
    ("PName", v_text p.p_name);
    ("Rank", v_text p.rank);
    ("Email", v_text p.email);
    ("DName", v_text p.p_dept);
    ("ToDept", v_link (dept_url p.p_dept));
    ( "CourseList",
      Adm.Value.Rows
        (List.map
           (fun c -> [ ("CName", v_text c.c_name); ("ToCourse", v_link (course_url c.c_name)) ])
           taught) );
  ]

let session_list_tuple t : Adm.Value.tuple =
  [
    ( "SesList",
      Adm.Value.Rows
        (List.map
           (fun s -> [ ("Session", v_text s); ("ToSes", v_link (session_url s)) ])
           t.sessions) );
  ]

let session_tuple_courses session in_session : Adm.Value.tuple =
  [
    ("Session", v_text session);
    ( "CourseList",
      Adm.Value.Rows
        (List.map
           (fun c -> [ ("CName", v_text c.c_name); ("ToCourse", v_link (course_url c.c_name)) ])
           in_session) );
  ]

(* Scan-based wrappers for single-page republication (mutations);
   bulk publication groups once instead (see [publish_all]). *)
let dept_tuple t (d : dept) =
  dept_tuple_members d (List.filter (fun p -> String.equal p.p_dept d.d_name) t.profs)

let prof_tuple t (p : prof) =
  prof_tuple_taught p (List.filter (fun c -> String.equal c.instructor p.p_name) t.courses)

let session_tuple t session =
  session_tuple_courses session
    (List.filter (fun c -> String.equal c.c_session session) t.courses)

let course_tuple (c : course) : Adm.Value.tuple =
  [
    ("CName", v_text c.c_name);
    ("Session", v_text c.c_session);
    ("Description", v_text c.description);
    ("Type", v_text c.c_type);
    ("PName", v_text c.instructor);
    ("ToProf", v_link (prof_url c.instructor));
  ]

(* (Re)publish individual pages. *)

let put t url title tuple = Websim.Site.put t.site ~url ~body:(Websim.Wrapper.render ~title tuple)

let publish_home t = put t home_url "University" (home_tuple ())
let publish_dept_list t = put t dept_list_url "Departments" (dept_list_tuple t)
let publish_dept t d = put t (dept_url d.d_name) d.d_name (dept_tuple t d)
let publish_prof_list t = put t prof_list_url "Professors" (prof_list_tuple t)
let publish_prof t p = put t (prof_url p.p_name) p.p_name (prof_tuple t p)
let publish_session_list t = put t session_list_url "Sessions" (session_list_tuple t)
let publish_session t s = put t (session_url s) s (session_tuple t s)
let publish_course t c = put t (course_url c.c_name) c.c_name (course_tuple c)

(* One grouping pass per foreign key, then every page renders from its
   own group — publication is O(pages), not O(pages * records), which
   is what lets [build] reach 10^5..10^6-page sites. Group order is
   input order, identical to what the per-page scans produce. *)
let group_by key xs =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some cell -> cell := x :: !cell
      | None -> Hashtbl.add tbl k (ref [ x ]))
    xs;
  fun k -> match Hashtbl.find_opt tbl k with Some cell -> List.rev !cell | None -> []

let publish_all t =
  publish_home t;
  publish_dept_list t;
  let members_of = group_by (fun p -> p.p_dept) t.profs in
  let taught_by = group_by (fun c -> c.instructor) t.courses in
  let in_session = group_by (fun c -> c.c_session) t.courses in
  List.iter
    (fun d -> put t (dept_url d.d_name) d.d_name (dept_tuple_members d (members_of d.d_name)))
    t.depts;
  publish_prof_list t;
  List.iter
    (fun p -> put t (prof_url p.p_name) p.p_name (prof_tuple_taught p (taught_by p.p_name)))
    t.profs;
  publish_session_list t;
  List.iter
    (fun s -> put t (session_url s) s (session_tuple_courses s (in_session s)))
    t.sessions;
  List.iter (publish_course t) t.courses

let build ?(config = default_config) () =
  let depts, profs, courses, sessions = generate_ground_truth config in
  let t =
    { config; site = Websim.Site.create (); depts; profs; courses; sessions; serial = 0 }
  in
  publish_all t;
  Websim.Site.tick t.site;
  t

let site t = t.site
let depts t = t.depts
let profs t = t.profs
let courses t = t.courses
let sessions t = t.sessions

(* ------------------------------------------------------------------ *)
(* Mutations (the autonomous site manager at work)                     *)
(* ------------------------------------------------------------------ *)

let fresh_serial t =
  t.serial <- t.serial + 1;
  t.serial

(* Hire a professor into a department: creates the professor page and
   updates the department page and the professor list. *)
let hire_professor t ~dept_name =
  Websim.Site.tick t.site;
  let n = fresh_serial t in
  let p =
    {
      p_name = Fmt.str "New Hire %03d" n;
      rank = "Assistant";
      email = Fmt.str "new-hire-%03d@uni.edu" n;
      p_dept = dept_name;
    }
  in
  t.profs <- t.profs @ [ p ];
  publish_prof t p;
  (match List.find_opt (fun d -> String.equal d.d_name dept_name) t.depts with
  | Some d -> publish_dept t d
  | None -> ());
  publish_prof_list t;
  p

(* Remove a course: deletes its page and updates the pages linking to
   it (instructor's page and its session page). *)
let drop_course t ~c_name =
  match List.find_opt (fun c -> String.equal c.c_name c_name) t.courses with
  | None -> false
  | Some c ->
    Websim.Site.tick t.site;
    t.courses <- List.filter (fun c' -> not (String.equal c'.c_name c_name)) t.courses;
    Websim.Site.delete t.site (course_url c_name);
    (match List.find_opt (fun p -> String.equal p.p_name c.instructor) t.profs with
    | Some p -> publish_prof t p
    | None -> ());
    publish_session t c.c_session;
    true

(* Change a course description: touches only the course page. *)
let revise_course t ~c_name =
  match List.find_opt (fun c -> String.equal c.c_name c_name) t.courses with
  | None -> false
  | Some c ->
    Websim.Site.tick t.site;
    let c' = { c with description = c.description ^ " (revised)" } in
    t.courses <-
      List.map (fun x -> if String.equal x.c_name c_name then c' else x) t.courses;
    publish_course t c';
    true

(* Promote a professor: touches only the professor page. *)
let promote_professor t ~p_name =
  match List.find_opt (fun p -> String.equal p.p_name p_name) t.profs with
  | None -> false
  | Some p ->
    Websim.Site.tick t.site;
    let p' = { p with rank = "Full" } in
    t.profs <- List.map (fun x -> if String.equal x.p_name p_name then p' else x) t.profs;
    publish_prof t p';
    true

(* ------------------------------------------------------------------ *)
(* The external view (Section 5)                                       *)
(* ------------------------------------------------------------------ *)

let view : Webviews.View.registry =
  let open Webviews in
  let e = Nalg.entry in
  let dept_nav =
    (* DeptListPage ◦ DeptList → DeptPage *)
    Nalg.follow
      (Nalg.unnest (e "DeptListPage") "DeptListPage.DeptList")
      "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage"
  in
  let prof_nav =
    Nalg.follow
      (Nalg.unnest (e "ProfListPage") "ProfListPage.ProfList")
      "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"
  in
  let course_nav =
    Nalg.follow
      (Nalg.unnest
         (Nalg.follow
            (Nalg.unnest (e "SessionListPage") "SessionListPage.SesList")
            "SessionListPage.SesList.ToSes" ~scheme:"SessionPage")
         "SessionPage.CourseList")
      "SessionPage.CourseList.ToCourse" ~scheme:"CoursePage"
  in
  let prof_courses_nav = Nalg.unnest prof_nav "ProfPage.CourseList" in
  let dept_profs_nav =
    Nalg.unnest dept_nav "DeptPage.ProfList"
  in
  [
    View.relation ~name:"Dept" ~attrs:[ "DName"; "Address" ] ~keys:[ "DName" ]
      ~navigations:
        [
          View.navigation
            ~bindings:[ ("DName", "DeptPage.DName"); ("Address", "DeptPage.Address") ]
            dept_nav;
        ]
      ();
    View.relation ~name:"Professor" ~attrs:[ "PName"; "Rank"; "Email" ]
      ~keys:[ "PName" ]
      ~navigations:
        [
          View.navigation
            ~bindings:
              [
                ("PName", "ProfPage.PName");
                ("Rank", "ProfPage.Rank");
                ("Email", "ProfPage.Email");
              ]
            prof_nav;
        ]
      ();
    View.relation ~name:"Course" ~attrs:[ "CName"; "Session"; "Description"; "Type" ]
      ~keys:[ "CName" ]
      ~navigations:
        [
          View.navigation
            ~bindings:
              [
                ("CName", "CoursePage.CName");
                ("Session", "CoursePage.Session");
                ("Description", "CoursePage.Description");
                ("Type", "CoursePage.Type");
              ]
            course_nav;
        ]
      ();
    View.relation ~name:"CourseInstructor" ~attrs:[ "CName"; "PName" ]
      ~keys:[ "CName" ]
      ~navigations:
        [
          View.navigation
            ~bindings:
              [
                ("CName", "ProfPage.CourseList.CName"); ("PName", "ProfPage.PName");
              ]
            prof_courses_nav;
          View.navigation
            ~bindings:
              [ ("CName", "CoursePage.CName"); ("PName", "CoursePage.PName") ]
            course_nav;
        ]
      ();
    View.relation ~name:"ProfDept" ~attrs:[ "PName"; "DName" ] ~keys:[ "PName" ]
      ~navigations:
        [
          View.navigation
            ~bindings:[ ("PName", "ProfPage.PName"); ("DName", "ProfPage.DName") ]
            prof_nav;
          View.navigation
            ~bindings:
              [ ("PName", "DeptPage.ProfList.PName"); ("DName", "DeptPage.DName") ]
            dept_profs_nav;
        ]
      ();
  ]

(* ------------------------------------------------------------------ *)
(* The paper's literal plans (Section 7, Figures 3 and 4)              *)
(* ------------------------------------------------------------------ *)

open Webviews

let text_is attr v = Pred.eq_const attr (Adm.Value.text v)

(* SessionListPage ◦ SesList [σ Session = session] → SessionPage ◦
   CourseList *)
let session_course_pointers ?session () =
  let sessions = Nalg.unnest (Nalg.entry "SessionListPage") "SessionListPage.SesList" in
  let sessions =
    match session with
    | None -> sessions
    | Some s -> Nalg.select [ text_is "SessionListPage.SesList.Session" s ] sessions
  in
  Nalg.unnest
    (Nalg.follow sessions "SessionListPage.SesList.ToSes" ~scheme:"SessionPage")
    "SessionPage.CourseList"

(* ProfListPage ◦ ProfList → ProfPage σ Rank = 'Full' ◦ CourseList *)
let full_prof_course_pointers () =
  Nalg.unnest
    (Nalg.select
       [ text_is "ProfPage.Rank" "Full" ]
       (Nalg.follow
          (Nalg.unnest (Nalg.entry "ProfListPage") "ProfListPage.ProfList")
          "ProfListPage.ProfList.ToProf" ~scheme:"ProfPage"))
    "ProfPage.CourseList"

let fig3_pointer_join () =
  Nalg.project
    [ "CoursePage.CName"; "CoursePage.Description" ]
    (Nalg.follow
       (Nalg.join
          [ ("SessionPage.CourseList.ToCourse", "ProfPage.CourseList.ToCourse") ]
          (session_course_pointers ~session:"Fall" ())
          (full_prof_course_pointers ()))
       "SessionPage.CourseList.ToCourse" ~scheme:"CoursePage")

let fig3_pointer_chase () =
  Nalg.project
    [ "CoursePage.CName"; "CoursePage.Description" ]
    (Nalg.select
       [ text_is "CoursePage.Session" "Fall" ]
       (Nalg.follow (full_prof_course_pointers ()) "ProfPage.CourseList.ToCourse"
          ~scheme:"CoursePage"))

(* DeptListPage ◦ DeptList σ DName = 'Computer Science' → DeptPage ◦
   ProfList *)
let cs_prof_pointers () =
  Nalg.unnest
    (Nalg.follow
       (Nalg.select
          [ text_is "DeptListPage.DeptList.DName" "Computer Science" ]
          (Nalg.unnest (Nalg.entry "DeptListPage") "DeptListPage.DeptList"))
       "DeptListPage.DeptList.ToDept" ~scheme:"DeptPage")
    "DeptPage.ProfList"

let fig4_pointer_join () =
  let grad_instructor_pointers =
    Nalg.select
      [ text_is "CoursePage.Type" "Graduate" ]
      (Nalg.follow (session_course_pointers ()) "SessionPage.CourseList.ToCourse"
         ~scheme:"CoursePage")
  in
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.follow
       (Nalg.join
          [ ("DeptPage.ProfList.ToProf", "CoursePage.ToProf") ]
          (cs_prof_pointers ()) grad_instructor_pointers)
       "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")

let fig4_pointer_chase () =
  Nalg.project
    [ "ProfPage.PName"; "ProfPage.Email" ]
    (Nalg.select
       [ text_is "CoursePage.Type" "Graduate" ]
       (Nalg.follow
          (Nalg.unnest
             (Nalg.follow (cs_prof_pointers ()) "DeptPage.ProfList.ToProf" ~scheme:"ProfPage")
             "ProfPage.CourseList")
          "ProfPage.CourseList.ToCourse" ~scheme:"CoursePage"))
