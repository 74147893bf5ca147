
% KA: a kalah player in the style of Sterling & Shapiro (The Art of
% Prolog, Chapters 20-21): the game-playing framework drives an
% alpha-beta search for the computer and a fixed strategy for the
% opponent; the board holds six holes and a kalah per side. The move
% mechanics (pick up the stones of a hole, sow them over your holes,
% your kalah, then the opponent's holes) are reconstructed compactly.
% Entry point: play(Game, Result).

play(Game, Result) :-
    initialize(Game, Position, Player),
    play(Position, Player, Result).

play(Position, Player, Result) :-
    game_over(Position, Player, Result).
play(Position, Player, Result) :-
    choose_move(Position, Player, Move),
    move(Move, Position, Position1),
    next_player(Player, Player1),
    play(Position1, Player1, Result).

initialize(kalah, board([6, 6, 6, 6, 6, 6], 0, [6, 6, 6, 6, 6, 6], 0),
           computer).

next_player(computer, opponent).
next_player(opponent, computer).

% The game ends when one kalah holds more than half the stones, or
% both hold exactly half.
game_over(board(_, K, _, L), _, draw) :-
    pieces(N),
    K =:= 6 * N,
    L =:= 6 * N.
game_over(board(_, K, _, _), Player, Player) :-
    pieces(N),
    K > 6 * N.
game_over(board(_, _, _, L), Player, Opponent) :-
    pieces(N),
    L > 6 * N,
    next_player(Player, Opponent).

pieces(6).

lookahead(2).

% The computer searches; the opponent greedily takes the first legal
% move.
choose_move(Position, computer, Move) :-
    lookahead(Depth),
    alpha_beta(Depth, Position, -40, 40, Move, _),
    nonvar(Move).
choose_move(Position, opponent, Move) :-
    legal_moves(Position, Moves),
    first_move(Moves, Move).

first_move([Move|_], Move).

legal_moves(board(Holes, _, _, _), Moves) :-
    moves(Holes, 1, Moves).

moves([], _, []).
moves([H|Hs], N, [m(N)|Ms]) :-
    H > 0,
    N1 is N + 1,
    moves(Hs, N1, Ms).
moves([H|Hs], N, Ms) :-
    H =:= 0,
    N1 is N + 1,
    moves(Hs, N1, Ms).

% Alpha-beta search (Program 20.3), value pairs written (Move, Value).
alpha_beta(0, Position, _, _, _, Value) :-
    value(Position, Value).
alpha_beta(Depth, Position, Alpha, Beta, Move, Value) :-
    Depth > 0,
    legal_moves(Position, Moves),
    Alpha1 is 0 - Beta,
    Beta1 is 0 - Alpha,
    Depth1 is Depth - 1,
    evaluate_and_choose(Moves, Position, Depth1, Alpha1, Beta1, nil,
                        (Move, Value)).

evaluate_and_choose([], _, _, Alpha, _, Move, (Move, Alpha)).
evaluate_and_choose([Move|Moves], Position, Depth, Alpha, Beta, Record,
                    Best) :-
    move(Move, Position, Position1),
    swap(Position1, Position2),
    alpha_beta(Depth, Position2, Alpha, Beta, _, MoveValue),
    Value is 0 - MoveValue,
    cutoff(Move, Value, Depth, Alpha, Beta, Moves, Position, Record,
           Best).

cutoff(Move, Value, _, _, Beta, _, _, _, (Move, Value)) :-
    Value >= Beta.
cutoff(Move, Value, Depth, Alpha, Beta, Moves, Position, _, Best) :-
    Alpha < Value,
    Value < Beta,
    evaluate_and_choose(Moves, Position, Depth, Value, Beta, Move, Best).
cutoff(_, Value, Depth, Alpha, Beta, Moves, Position, Record, Best) :-
    Value =< Alpha,
    evaluate_and_choose(Moves, Position, Depth, Alpha, Beta, Record,
                        Best).

value(board(_, K, _, L), Value) :-
    Value is K - L.

swap(board(Holes, K, OtherHoles, L), board(OtherHoles, L, Holes, K)).

% move(m(M), Board, Board1): empty hole M and sow its stones over the
% remaining own holes, the kalah, then the opponent's holes.
move(m(M), board(Holes, K, OtherHoles, L),
     board(Holes1, K1, OtherHoles1, L)) :-
    stones(M, Holes, Picked),
    empty_hole(M, Holes, Holes0),
    sow(Picked, Holes0, Holes1, Rest),
    sow_kalah(Rest, K, K1, Rest1),
    sow(Rest1, OtherHoles, OtherHoles1, _).

stones(1, [S|_], S).
stones(M, [_|Hs], S) :-
    M > 1,
    M1 is M - 1,
    stones(M1, Hs, S).

empty_hole(1, [_|Hs], [0|Hs]).
empty_hole(M, [H|Hs], [H|Hs1]) :-
    M > 1,
    M1 is M - 1,
    empty_hole(M1, Hs, Hs1).

% sow(N, Holes, Holes1, Left): drop one stone per hole while stones
% remain.
sow(0, Holes, Holes, 0).
sow(N, [], [], N).
sow(N, [H|Hs], [H1|Hs1], Left) :-
    N > 0,
    H1 is H + 1,
    N1 is N - 1,
    sow(N1, Hs, Hs1, Left).

sow_kalah(0, K, K, 0).
sow_kalah(N, K, K1, N1) :-
    N > 0,
    K1 is K + 1,
    N1 is N - 1.
