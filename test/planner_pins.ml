(* What the planner decides for every pinned query ([Pins.block]), one
   block per query, each followed by a blank line. dune diffs the output
   against planner_pins.expected; `dune promote` accepts a deliberate
   change. *)

let () = List.iter (fun case -> print_string (Pins.block case ^ "\n\n")) Pins.cases
