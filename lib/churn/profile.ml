let hot_fraction = 0.1
let hot_bias = 0.7
let touch_share = 0.5

type t = {
  rate : float;
  tombstone_rate : float;
  insert_rate : float;
  burst_every : int;
  burst_len : int;
  burst_mult : float;
}

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let make ?(tombstone_rate = 0.05) ?(insert_rate = 0.05) ?(burst_every = 0)
    ?(burst_len = 0) ?(burst_mult = 1.0) ~rate () =
  {
    rate = Float.max 0.0 rate;
    tombstone_rate = clamp01 tombstone_rate;
    insert_rate = clamp01 insert_rate;
    burst_every = max 0 burst_every;
    burst_len = max 0 burst_len;
    burst_mult = Float.max 0.0 burst_mult;
  }

let zero = make ~rate:0.0 ()
let low = make ~rate:0.02 ()
let high = make ~rate:0.3 ~burst_every:50 ~burst_len:10 ~burst_mult:3.0 ()
