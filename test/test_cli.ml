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

let test_form_only_query () =
  List.iter
    (fun cmd ->
      let ((_, stderr) as r) =
        run_cli [ cmd; "--site"; "formsite"; "SELECT P.PName FROM Professor P" ]
      in
      expect_exit cmd 2 r;
      Alcotest.(check bool)
        (cmd ^ " reports E0111 or E0309") true
        (contains stderr "E0111" || contains stderr "E0309"))
    [ "query"; "plan"; "explain"; "run" ]

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
        ("run", "--window", "-3"); ("run", "--retries", "-1"); ("run", "--limit", "-1");
        ("plan", "--cap", "-5"); ("plan", "--candidates", "-1"); ("run", "--faults", "2.0");
        ("churn", "--churn-rate", "nan"); ("churn", "--churn-rate", "-1");
        ("churn", "--churn-rate", "inf"); ("serve", "--churn", "nan"); ("serve", "--churn", "-2");
      ]
    @ List.concat_map
        (fun cmd ->
          [ (cmd, "--budget", "-5"); (cmd, "--budget", "nan"); (cmd, "--max-age", "-3") ])
        [ "serve"; "churn" ])

(* An integer literal beyond the native int range is a syntax error
   (E0308, exit 2) wherever a query enters: LIMIT, a comparison, and a
   workload line. *)
let test_integer_overflow () =
  let too_big = "99999999999999999999" in
  let queries =
    [
      "SELECT p.PName FROM Professor p LIMIT " ^ too_big;
      "SELECT p.PName FROM Professor p WHERE p.PName = " ^ too_big;
    ]
  in
  List.iter
    (fun sql ->
      List.iter
        (fun cmd ->
          let ((_, stderr) as r) = run_cli [ cmd; sql ] in
          expect_exit (cmd ^ " " ^ sql) 2 r;
          Alcotest.(check bool) (cmd ^ " reports E0308") true (contains stderr "E0308"))
        [ "query"; "plan"; "explain"; "run" ])
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

(* The CLI paths that route a query's source through the scheduler's
   [source_for] and carry view answerers on the source: their stdout is
   pinned byte for byte in cli_pins.expected. On a mismatch the current
   text is written to cli_pins.actual beside the test binary. *)
let pinned_commands =
  let q = "SELECT p.PName, p.Email FROM Professor p" in
  [
    [ "serve"; "--stale"; "--faults"; "0.6"; "--retries"; "0"; "--queries"; "16"; "--json" ];
    [ "query"; "--views"; q ];
    [ "explain"; "--physical"; "--views"; q ];
    [ "churn"; "--depts"; "4"; "--profs"; "30"; "--courses"; "60"; "--churn-rate"; "0.2";
      "--budget"; "8"; "--queries"; "60"; "--json" ];
  ]

let run_stdout args =
  let out = Filename.temp_file "webviews_cli" ".out" in
  let cmd =
    String.concat " " (cli :: List.map Filename.quote args) ^ " > " ^ Filename.quote out
  in
  let code = Sys.command cmd in
  let stdout = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
  stdout

let test_pinned_outputs () =
  let actual =
    String.concat ""
      (List.map
         (fun args -> "$ webviews " ^ String.concat " " args ^ "\n" ^ run_stdout args)
         pinned_commands)
  in
  let expected = In_channel.with_open_text "cli_pins.expected" In_channel.input_all in
  if not (String.equal expected actual) then begin
    Out_channel.with_open_text "cli_pins.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.fail "CLI output diverged from cli_pins.expected (see cli_pins.actual)"
  end

let suite =
  ( "cli",
    [
      Alcotest.test_case "form-only query is a coded error, exit 2" `Quick
        test_form_only_query;
      Alcotest.test_case "bad workload line is a coded error, exit 2" `Quick
        test_bad_workload_line;
      Alcotest.test_case "unbuildable site size is a usage error" `Quick
        test_unbuildable_site_sizes;
      Alcotest.test_case "stale serve, views and churn output pinned" `Quick
        test_pinned_outputs;
      Alcotest.test_case "out-of-range integer literal is a coded error, exit 2" `Quick
        test_integer_overflow;
    ] )
