type costs = { head : float; get : float }

let default_costs = { head = 1.0; get = 10.0 }

type t = {
  per_turn : float;
  unlimited : bool;
  mutable balance : float;
  mutable spent : float;
  mutable denied : int;
}

let create ~per_turn () =
  let per_turn = Float.max 0.0 per_turn in
  {
    per_turn;
    unlimited = false;
    balance = per_turn;
    spent = 0.0;
    denied = 0;
  }

let unlimited () =
  { per_turn = 0.0; unlimited = true; balance = 0.0; spent = 0.0; denied = 0 }

let refill t = if not t.unlimited then t.balance <- t.balance +. t.per_turn

let balance t = if t.unlimited then infinity else t.balance

let force t cost =
  t.spent <- t.spent +. cost;
  if not t.unlimited then t.balance <- t.balance -. cost

let admit t cost =
  if t.unlimited || t.balance > 0.0 then begin
    force t cost;
    true
  end
  else begin
    t.denied <- t.denied + 1;
    false
  end

let spent t = t.spent
let denied t = t.denied
