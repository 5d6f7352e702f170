import numpy as np

from survfuse.autoencoder import Autoencoder, init_autoencoder
from survfuse.nn import mlp_forward
from gradcheck import finite_difference_check, reconstruction_loss_grad


def test_mirror_architecture_and_latent_dim():
    ae = init_autoencoder(20, np.random.default_rng(0), hidden=[8, 4], latent_dim=3)
    assert ae.encoder.in_dim == ae.decoder.out_dim == 20
    assert ae.latent_dim == 3
    assert [w.shape for w in ae.encoder.weights] == [(20, 8), (8, 4), (4, 3)]
    assert [w.shape for w in ae.decoder.weights] == [(3, 4), (4, 8), (8, 20)]


def test_encode_shape():
    rng = np.random.default_rng(1)
    ae = init_autoencoder(10, rng, hidden=[6], latent_dim=4)
    z = mlp_forward(ae.encoder, rng.normal(size=(5, 10)))
    assert z.shape == (5, 4)


def test_loss_matches_manual_computation():
    rng = np.random.default_rng(2)
    ae = init_autoencoder(7, rng, hidden=[5], latent_dim=3)
    x = rng.normal(size=(4, 7))
    z = mlp_forward(ae.encoder, x)
    recon = mlp_forward(ae.decoder, z)
    expected = 0.0
    for i in range(4):
        expected += ((recon[i] - x[i]) ** 2).sum() / 7
    expected /= 4
    assert abs(reconstruction_loss_grad(ae, x)[0] - expected) < 1e-14


def test_perfect_reconstruction_gives_zero_loss():
    # identity network: one linear layer each way, identity weights
    from survfuse.nn import Mlp

    eye = Autoencoder(encoder=Mlp([np.eye(3)], [np.zeros(3)]),
                      decoder=Mlp([np.eye(3)], [np.zeros(3)]))
    x = np.random.default_rng(3).normal(size=(5, 3))
    assert reconstruction_loss_grad(eye, x)[0] == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(5):
        ae = init_autoencoder(6, rng, hidden=[5, 4], latent_dim=3)
        for mlp in (ae.encoder, ae.decoder):
            for b in mlp.biases:
                b += rng.normal(scale=0.2, size=b.shape)
        x = rng.normal(size=(4, 6))

        params = {}
        for tag, mlp in (("enc", ae.encoder), ("dec", ae.decoder)):
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                params[f"{tag}.w{i}"] = w
                params[f"{tag}.b{i}"] = b

        def loss_fn(params):
            loss, enc_grads, dec_grads = reconstruction_loss_grad(ae, x)
            flat = {}
            for tag, grads in (("enc", enc_grads), ("dec", dec_grads)):
                for i, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
                    flat[f"{tag}.w{i}"] = gw
                    flat[f"{tag}.b{i}"] = gb
            return loss, flat

        worst = finite_difference_check(loss_fn, params, probes=20,
                                        rng=np.random.default_rng(trial))
        assert worst < 1e-6


def test_dropout_changes_training_loss_but_not_eval():
    rng = np.random.default_rng(5)
    ae = init_autoencoder(6, rng, hidden=[8], latent_dim=3, dropout=0.5)
    x = rng.normal(size=(3, 6))
    eval_loss = reconstruction_loss_grad(ae, x)[0]
    assert reconstruction_loss_grad(ae, x)[0] == eval_loss
    train_loss, _, _ = reconstruction_loss_grad(ae, x, rng=np.random.default_rng(0))
    assert train_loss != eval_loss
