(* The command-line interface on inputs that used to escape as OCaml
   exceptions: each must end in a coded diagnostic with its documented
   exit code (2 for a query the lint gate rejects, 124 for a usage
   error). The tests run the built executable. *)

let cli = "../bin/webviews_cli.exe"

(* Run the CLI with [args]; return its exit code and its stderr. *)
let run_cli args =
  let err = Filename.temp_file "webviews_cli" ".err" in
  let cmd =
    String.concat " " (cli :: List.map Filename.quote args)
    ^ " > /dev/null 2> " ^ Filename.quote err
  in
  let code = Sys.command cmd in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

let contains s sub = Test_contain.contains_sub ~sub s

let expect_exit name want (code, stderr) =
  Alcotest.(check int) (Fmt.str "%s exits %d (stderr: %s)" name want stderr) want code

(* A query the lint gate rejects is a coded diagnostic with exit 2 on
   every command that plans: a form-only query no composition of forms
   answers (E0111, or past the lint an empty plan space E0309), and a
   query naming an unknown attribute (E0304). *)
let test_form_only_query () =
  List.iter
    (fun (args, codes) ->
      List.iter
        (fun cmd ->
          let ((_, stderr) as r) = run_cli (cmd :: args) in
          expect_exit cmd 2 r;
          Alcotest.(check bool)
            (cmd ^ " reports " ^ String.concat " or " codes)
            true
            (List.exists (contains stderr) codes))
        [ "query"; "plan"; "explain" ])
    [
      ([ "--site"; "formsite"; "SELECT P.PName FROM Professor P" ], [ "E0111"; "E0309" ]);
      ([ "SELECT p.Nope FROM Professor p" ], [ "E0304" ]);
    ]

let test_bad_workload_line () =
  let path = Filename.temp_file "webviews_workload" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# a comment\nSELECT p.PName FROM Professor p\n\nSELECT p.Nope FROM Professor p\n");
  List.iter
    (fun cmd ->
      let ((_, stderr) as r) = run_cli [ cmd; "--workload"; path ] in
      expect_exit cmd 2 r;
      Alcotest.(check bool)
        (cmd ^ " points at line 4 with E0304") true
        (contains stderr (path ^ ":4: error[E0304]")))
    [ "serve"; "churn" ];
  Sys.remove path

(* Site sizes the generators cannot build, and counts and rates out of
   their range, are usage errors naming the flag. None of these runs
   starts a domain: the value is refused before the command runs. *)
let test_unbuildable_site_sizes () =
  List.iter
    (fun (cmd, flag, value) ->
      let sql = if cmd = "serve" || cmd = "churn" then [] else [ "SELECT p.PName FROM Professor p" ] in
      let ((_, stderr) as r) = run_cli ((cmd :: [ flag ^ "=" ^ value ]) @ sql) in
      expect_exit (cmd ^ " " ^ flag ^ "=" ^ value) 124 r;
      Alcotest.(check bool) ("usage error names " ^ flag) true (contains stderr flag))
    ([ ("query", "--depts", "0"); ("query", "--profs", "0"); ("query", "--courses", "-1") ]
    @ List.concat_map
        (fun cmd ->
          [ (cmd, "--concurrency", "0"); (cmd, "--quantum", "0"); (cmd, "--domains", "0");
            (cmd, "--queries", "-1") ])
        [ "serve"; "churn" ]
    @ [
        ("query", "--window", "-3"); ("query", "--retries", "-1"); ("query", "--limit", "-1");
        ("plan", "--candidates", "-1"); ("query", "--faults", "2.0");
        ("churn", "--churn-rate", "nan"); ("churn", "--churn-rate", "-1");
        ("churn", "--churn-rate", "inf"); ("serve", "--deadline", "-5");
        ("serve", "--deadline", "nan"); ("serve", "--max-resident", "-5");
        ("churn", "--budget", "-5"); ("churn", "--budget", "nan"); ("churn", "--max-age", "-3");
      ]);
  (* the planner's search has no bound to set: --cap is an unknown option *)
  let ((_, stderr) as r) = run_cli [ "plan"; "--cap"; "5"; "SELECT p.PName FROM Professor p" ] in
  expect_exit "plan --cap 5" 124 r;
  Alcotest.(check bool) "unknown option --cap" true (contains stderr "unknown option")

(* An integer literal beyond the native int range is a syntax error
   (E0308, exit 2) wherever a query enters: LIMIT, a comparison, and a
   workload line; so is a misspelt keyword. *)
let test_integer_overflow () =
  let too_big = "99999999999999999999" in
  let queries =
    [
      "SELECT p.PName FROM Professor p LIMIT " ^ too_big;
      "SELECT p.PName FROM Professor p WHERE p.PName = " ^ too_big;
      "SELEC p.PName FROM Professor p";
    ]
  in
  List.iter
    (fun sql ->
      List.iter
        (fun cmd ->
          let ((_, stderr) as r) = run_cli [ cmd; sql ] in
          expect_exit (cmd ^ " " ^ sql) 2 r;
          Alcotest.(check bool) (cmd ^ " reports E0308") true (contains stderr "E0308"))
        [ "query"; "plan"; "explain" ])
    queries;
  let path = Filename.temp_file "webviews_workload" ".sql" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc ("SELECT p.PName FROM Professor p\n" ^ List.hd queries ^ "\n"));
  List.iter
    (fun cmd ->
      let ((_, stderr) as r) = run_cli [ cmd; "--workload"; path ] in
      expect_exit cmd 2 r;
      Alcotest.(check bool)
        (cmd ^ " points at line 2 with E0308") true
        (contains stderr (path ^ ":2: error[E0308]")))
    [ "serve"; "churn" ];
  Sys.remove path

let suite =
  ( "cli",
    [
      Alcotest.test_case "form-only query is a coded error, exit 2" `Quick
        test_form_only_query;
      Alcotest.test_case "bad workload line is a coded error, exit 2" `Quick
        test_bad_workload_line;
      Alcotest.test_case "unbuildable site size is a usage error" `Quick
        test_unbuildable_site_sizes;
      Alcotest.test_case "out-of-range integer literal is a coded error, exit 2" `Quick
        test_integer_overflow;
    ] )
